package vswitch

import "presto/internal/packet"

// policyGCThreshold is the size at which the sender's flow table is
// first due an aging sweep; packet.SweepIdle holds the rule.
const policyGCThreshold = packet.FlowSweepMin
