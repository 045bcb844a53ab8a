package cluster

import (
	"fmt"
	"testing"

	"presto/internal/controller"
	"presto/internal/fabric"
	"presto/internal/gro"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/tcp"
	"presto/internal/vswitch"
)

// TestSchemeKeysReachHosts builds a cluster from each shared scheme
// key and checks that its value reached the hosts: every receiver's
// offload handler and Presto GRO's α, both endpoints' congestion
// control, and a leaf label-rule count equal to what the controller
// installs in that label mode.
func TestSchemeKeysReachHosts(t *testing.T) {
	// leafRules is the leaf label-rule count the controller installs
	// on the 4x4x4 testbed in a label mode.
	leafRules := func(tunnel bool) int {
		tp, eng := clos(4, 4, 4), sim.NewEngine()
		net := fabric.New(eng, tp, fabric.Config{})
		ctrl := controller.New(net, controller.Config{TunnelMode: tunnel})
		for h := 0; h < tp.NumHosts(); h++ {
			ctrl.RegisterVSwitch(vswitch.New(eng, packet.HostID(h), nil, vswitch.NewPresto(packet.MaxSegSize)))
		}
		ctrl.InstallAll()
		n := 0
		for _, leaf := range tp.Leaves {
			n += net.Switch(leaf).LabelCount()
		}
		return n
	}
	perHost, tunnel := leafRules(false), leafRules(true)
	if perHost == tunnel {
		t.Fatalf("both label modes install %d leaf rules", perHost)
	}
	for _, tc := range []struct {
		spec  Scheme
		gro   string  // the handler's type
		alpha float64 // Presto GRO's α (0: not Presto GRO)
		cc    string
		rules int
	}{
		{"presto", "*gro.Presto", 2, "cubic", perHost},
		{"presto:gro=official", "*gro.Official", 0, "cubic", perHost},
		{"presto:gro=none", "*gro.None", 0, "cubic", perHost},
		{"ecmp", "*gro.Official", 0, "cubic", perHost},
		{"ecmp:gro=presto,alpha=0.5", "*gro.Presto", 0.5, "cubic", perHost},
		{"presto:alpha=4", "*gro.Presto", 4, "cubic", perHost},
		{"presto:cc=reno", "*gro.Presto", 2, "reno", perHost},
		{"presto:cc=dctcp", "*gro.Presto", 2, "dctcp", perHost},
		{"presto:labels=tunnel", "*gro.Presto", 2, "cubic", tunnel},
		{"ecmp:labels=per-host", "*gro.Official", 0, "cubic", perHost},
	} {
		t.Run(string(tc.spec), func(t *testing.T) {
			c := New(Config{Topology: clos(4, 4, 4), Scheme: tc.spec, Seed: 1})
			for _, h := range c.Hosts {
				g := h.NIC.GRO()
				if got := fmt.Sprintf("%T", g); got != tc.gro {
					t.Fatalf("host %d receives through %s, want %s", h.ID, got, tc.gro)
				}
				if p, ok := g.(*gro.Presto); ok && p.Alpha() != tc.alpha {
					t.Fatalf("host %d: Presto GRO α %g, want %g", h.ID, p.Alpha(), tc.alpha)
				}
			}
			conn := c.Dial(0, 15)
			for _, ep := range []*tcp.Endpoint{conn.Sender(), conn.Receiver()} {
				if got := ep.CC(); got != tc.cc {
					t.Errorf("endpoint runs %s, want %s", got, tc.cc)
				}
			}
			rules := 0
			for _, leaf := range c.Topo.Leaves {
				rules += c.Net.Switch(leaf).LabelCount()
			}
			if rules != tc.rules {
				t.Errorf("%d leaf label rules, want %d", rules, tc.rules)
			}
		})
	}
}
