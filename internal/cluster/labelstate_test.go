package cluster

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
)

// labelMode is sch with tunnel labels when tunnel is set.
func labelMode(sch Scheme, tunnel bool) Scheme {
	if tunnel {
		return sch + ":labels=tunnel"
	}
	return sch
}

// labelStateHash digests everything the controller installs: every
// switch's label table and tree count (node order, labels in
// (kind, target, tree) order) and every vSwitch's mapping for every
// destination (host order). The table is read through Switch.Egress
// over the whole label universe; LabelCount proves nothing was missed.
func labelStateHash(t *testing.T, c *Cluster) string {
	t.Helper()
	h := sha256.New()
	trees := len(c.Ctrl.Trees())
	var universe []packet.MAC
	for host := range c.Topo.Hosts {
		for tr := 0; tr < trees; tr++ {
			universe = append(universe, packet.ShadowMAC(packet.HostID(host), tr))
		}
	}
	for leaf := range c.Topo.Leaves {
		for tr := 0; tr < trees; tr++ {
			universe = append(universe, packet.TunnelMAC(leaf, tr))
		}
	}
	for _, n := range c.Topo.Nodes {
		if n.Kind == topo.KindHost {
			continue
		}
		sw := c.Net.Switch(n.ID)
		// numTrees has no accessor (only the failover rule reads it);
		// reflection can read an unexported int without one.
		numTrees := reflect.ValueOf(sw).Elem().FieldByName("numTrees").Int()
		fmt.Fprintf(h, "switch %d trees %d\n", n.ID, numTrees)
		found := 0
		for _, label := range universe {
			if egress, ok := sw.Egress(label); ok {
				fmt.Fprintf(h, " %v>%d\n", label, egress)
				found++
			}
		}
		if found != sw.LabelCount() {
			t.Fatalf("switch %s: %d of %d labels lie outside the (host|leaf) x tree universe",
				n.Name, sw.LabelCount()-found, sw.LabelCount())
		}
	}
	for _, src := range c.Hosts {
		for dst := range c.Topo.Hosts {
			fmt.Fprintf(h, "map %d>%d %v\n", src.ID, dst, src.VS.Mapping(packet.HostID(dst)))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// firstFabricLink returns the first switch-to-switch link, if any.
func firstFabricLink(tp *topo.Topology) (topo.LinkID, bool) {
	for _, l := range tp.Links {
		if tp.Nodes[l.A].Kind != topo.KindHost && tp.Nodes[l.B].Kind != topo.KindHost {
			return l.ID, true
		}
	}
	return 0, false
}

// TestLabelStatePinned pins the controller's whole output — switch
// label tables, tree counts, edge mappings — for every fabric shape,
// an unweighted and a weighted scheme, and both label modes, at
// install and again after one fabric link fails and the controller's
// re-push lands. The hashes were recorded before the one-tree refactor
// of internal/topo and internal/controller and must not move with it.
// (Tunnel labels on the 3-tier and mesh shapes are absent on purpose:
// the pre-refactor installer left those tables empty.)
func TestLabelStatePinned(t *testing.T) {
	remotes := func() *topo.Topology {
		tp := topo.TwoTierClos(4, 4, 4, 1, topo.LinkConfig{})
		for _, s := range tp.Spines {
			tp.AddSpineHost(s, 100e6, 5*sim.Microsecond)
		}
		return tp
	}
	shapes := []struct {
		name   string
		build  func() *topo.Topology
		tunnel bool // tunnel mode worked on this shape before the refactor
	}{
		{"testbed", func() *topo.Topology { return topo.TwoTierClos(4, 4, 4, 1, topo.LinkConfig{}) }, true},
		{"gamma2", func() *topo.Topology { return topo.TwoTierClos(2, 3, 2, 2, topo.LinkConfig{}) }, true},
		{"paths8", func() *topo.Topology { return topo.TwoTierClos(8, 2, 2, 1, topo.LinkConfig{}) }, true},
		{"single", func() *topo.Topology { return topo.SingleSwitch(4, topo.LinkConfig{}) }, true},
		{"remotes", remotes, true},
		{"threetier", func() *topo.Topology { return topo.ThreeTierClos(4, 2, 2, 2, topo.LinkConfig{}) }, false},
		{"mesh", func() *topo.Topology { return topo.LeafMesh(4, 2, topo.LinkConfig{}) }, false},
	}
	want := map[string][2]string{
		"testbed/presto/tunnel=false":   {"042b868f0717318a", "d8eb768f9ed96ae7"},
		"testbed/presto/tunnel=true":    {"22bce2ee774b71b3", "a6ea6d354cd17d3f"},
		"testbed/spritz/tunnel=false":   {"042b868f0717318a", "d8eb768f9ed96ae7"},
		"testbed/spritz/tunnel=true":    {"22bce2ee774b71b3", "a6ea6d354cd17d3f"},
		"gamma2/presto/tunnel=false":    {"af3da3e2e1334f75", "9449b065456b5b2c"},
		"gamma2/presto/tunnel=true":     {"b137d9a538b70b7e", "26206530a4559832"},
		"gamma2/spritz/tunnel=false":    {"af3da3e2e1334f75", "9449b065456b5b2c"},
		"gamma2/spritz/tunnel=true":     {"b137d9a538b70b7e", "26206530a4559832"},
		"paths8/presto/tunnel=false":    {"ef54b9bb14176bad", "a3519a2fcb341abc"},
		"paths8/presto/tunnel=true":     {"3796b9377c729cc3", "0693d6eac23ce3c9"},
		"paths8/spritz/tunnel=false":    {"ef54b9bb14176bad", "a3519a2fcb341abc"},
		"paths8/spritz/tunnel=true":     {"3796b9377c729cc3", "0693d6eac23ce3c9"},
		"single/presto/tunnel=false":    {"2bf724ea062cd3c5", "2bf724ea062cd3c5"},
		"single/presto/tunnel=true":     {"599843005381b0a2", "599843005381b0a2"},
		"single/spritz/tunnel=false":    {"2bf724ea062cd3c5", "2bf724ea062cd3c5"},
		"single/spritz/tunnel=true":     {"599843005381b0a2", "599843005381b0a2"},
		"remotes/presto/tunnel=false":   {"767edf3c63779d82", "df5eb635fbcfb453"},
		"remotes/presto/tunnel=true":    {"53369ae2fb4c54ac", "b763c4a99f25c396"},
		"remotes/spritz/tunnel=false":   {"767edf3c63779d82", "df5eb635fbcfb453"},
		"remotes/spritz/tunnel=true":    {"53369ae2fb4c54ac", "b763c4a99f25c396"},
		"threetier/presto/tunnel=false": {"5b0e2aeabd23f4bc", "733c4514f96e6d3a"},
		"threetier/spritz/tunnel=false": {"5b0e2aeabd23f4bc", "733c4514f96e6d3a"},
		"mesh/presto/tunnel=false":      {"e3c7e1d82959b91f", "f183ba56431394dd"},
		"mesh/spritz/tunnel=false":      {"3c5e9aab13fdde49", "f2158768b7723d33"},
	}
	for _, sh := range shapes {
		for _, sch := range []Scheme{Presto, "spritz"} {
			for _, tunnel := range []bool{false, true} {
				if tunnel && !sh.tunnel {
					continue
				}
				name := fmt.Sprintf("%s/%s/tunnel=%v", sh.name, sch, tunnel)
				t.Run(name, func(t *testing.T) {
					c := New(Config{Topology: sh.build(), Scheme: labelMode(sch, tunnel), Seed: 1})
					var got [2]string
					got[0] = labelStateHash(t, c)
					if lid, ok := firstFabricLink(c.Topo); ok {
						c.FailLink(lid)
					}
					c.Run(60 * sim.Millisecond) // past the controller's 50 ms push
					got[1] = labelStateHash(t, c)
					if got != want[name] {
						t.Errorf("label state moved:\n\t%q: {%q, %q},", name, got[0], got[1])
					}
				})
			}
		}
	}
}

// TestTunnelLabelsOnEveryShape: tunnel mode (§3.1's
// O(|switches| x |paths|) extension) must install and spray on the
// fabrics where the rule count matters. Before the one-tree installer
// it wrote no labels on 3-tier and mesh fabrics while the edge still
// sprayed tunnel MACs, so every flowcell fell through the switches'
// no-entry detour onto one path.
func TestTunnelLabelsOnEveryShape(t *testing.T) {
	type outcome struct {
		labels    int
		perRoot   []uint64 // packets through each tree's root switch
		hopDrops  uint64
		delivered uint64
	}
	run := func(tp *topo.Topology, tunnel bool) outcome {
		c := New(Config{Topology: tp, Scheme: labelMode(Presto, tunnel), Seed: 7})
		conn := c.Dial(0, packet.HostID(tp.NumHosts()-1)) // first pod to last
		conn.SetUnlimited(true)
		c.Run(20 * sim.Millisecond)
		var o outcome
		for _, n := range tp.Nodes {
			if n.Kind != topo.KindHost {
				o.labels += c.Net.Switch(n.ID).LabelCount()
			}
		}
		for _, tr := range c.Ctrl.Trees() {
			o.perRoot = append(o.perRoot, c.Net.Switch(tr.Root).RxPackets)
		}
		o.hopDrops, o.delivered = c.Net.TotalHopDrops(), conn.Delivered()
		return o
	}
	for name, build := range map[string]func() *topo.Topology{
		"threetier": func() *topo.Topology { return topo.ThreeTierClos(4, 2, 2, 2, topo.LinkConfig{}) },
		"mesh":      func() *topo.Topology { return topo.LeafMesh(4, 2, topo.LinkConfig{}) },
	} {
		t.Run(name, func(t *testing.T) {
			perHost, tunnel := run(build(), false), run(build(), true)
			if tunnel.labels == 0 || tunnel.labels >= perHost.labels {
				t.Errorf("tunnel mode installed %d labels, want > 0 and < per-host's %d", tunnel.labels, perHost.labels)
			}
			for i, want := range perHost.perRoot {
				got := tunnel.perRoot[i]
				if got == 0 || float64(got) < 0.99*float64(want) || float64(got) > 1.01*float64(want) {
					t.Errorf("tree %d root carried %d packets under tunnel labels, %d under per-host labels", i, got, want)
				}
			}
			if tunnel.hopDrops != 0 {
				t.Errorf("%d hop drops under tunnel labels", tunnel.hopDrops)
			}
			if tunnel.delivered != perHost.delivered {
				t.Errorf("delivered %d bytes under tunnel labels, %d under per-host labels", tunnel.delivered, perHost.delivered)
			}
		})
	}
}
