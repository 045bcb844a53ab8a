package controller

import (
	"testing"
	"testing/quick"

	"presto/internal/fabric"
	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/topo"
	"presto/internal/vswitch"
)

func countLabels(seq []packet.MAC) map[packet.MAC]int {
	m := map[packet.MAC]int{}
	for _, l := range seq {
		m[l]++
	}
	return m
}

func TestWeightedLabelsPaperExample(t *testing.T) {
	// §3.3: weights 0.25/0.5/0.25 over p1,p2,p3 -> p2 appears twice in
	// a 4-slot sequence.
	p1, p2, p3 := packet.ShadowMAC(1, 0), packet.ShadowMAC(1, 1), packet.ShadowMAC(1, 2)
	seq := WeightedLabels([]packet.MAC{p1, p2, p3}, []float64{0.25, 0.5, 0.25}, 8)
	if len(seq) != 4 {
		t.Fatalf("sequence length %d, want 4: %v", len(seq), seq)
	}
	c := countLabels(seq)
	if c[p1] != 1 || c[p2] != 2 || c[p3] != 1 {
		t.Fatalf("counts %v, want 1/2/1", c)
	}
	// Duplicates interleaved, not adjacent.
	for i := 1; i < len(seq); i++ {
		if seq[i] == seq[i-1] {
			t.Fatalf("adjacent duplicates in %v", seq)
		}
	}
}

func TestWeightedLabelsEqualWeights(t *testing.T) {
	p1, p2 := packet.ShadowMAC(1, 0), packet.ShadowMAC(1, 1)
	seq := WeightedLabels([]packet.MAC{p1, p2}, []float64{1, 1}, 16)
	c := countLabels(seq)
	if c[p1] != c[p2] {
		t.Fatalf("equal weights uneven: %v", c)
	}
}

func TestWeightedLabelsDegenerate(t *testing.T) {
	p1 := packet.ShadowMAC(1, 0)
	if WeightedLabels(nil, nil, 4) != nil {
		t.Fatal("nil input should return nil")
	}
	if WeightedLabels([]packet.MAC{p1}, []float64{0}, 4) != nil {
		t.Fatal("all-zero weights should return nil")
	}
	if got := WeightedLabels([]packet.MAC{p1}, []float64{5}, 4); len(got) != 1 {
		t.Fatalf("single label: %v", got)
	}
}

// Property: realized label frequencies approximate the requested
// weights within the resolution of the slot budget.
func TestWeightedLabelsAccuracyProperty(t *testing.T) {
	prop := func(w1, w2, w3 uint8) bool {
		ws := []float64{float64(w1%9) + 1, float64(w2%9) + 1, float64(w3%9) + 1}
		labels := []packet.MAC{packet.ShadowMAC(1, 0), packet.ShadowMAC(1, 1), packet.ShadowMAC(1, 2)}
		seq := WeightedLabels(labels, ws, 32)
		if len(seq) == 0 || len(seq) > 32 {
			return false
		}
		counts := countLabels(seq)
		sum := ws[0] + ws[1] + ws[2]
		for i, l := range labels {
			got := float64(counts[l]) / float64(len(seq))
			want := ws[i] / sum
			if got < want-0.15 || got > want+0.15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetWeightedMapping(t *testing.T) {
	eng := sim.NewEngine()
	tp := topo.TwoTierClos(3, 2, 1, 1, topo.LinkConfig{})
	net := fabric.New(eng, tp, fabric.Config{})
	c := New(net, Config{})
	vs := vswitch.New(eng, 0, nullSender{}, vswitch.NewPresto(packet.MaxSegSize))
	c.RegisterVSwitch(vs)
	c.InstallAll()
	if !c.SetWeightedMapping(0, 1, []float64{0.5, 0.25, 0.25}, 8) {
		t.Fatal("SetWeightedMapping failed")
	}
	seq := vs.Mapping(1)
	counts := map[int]int{}
	for _, m := range seq {
		counts[m.ShadowTree()]++
	}
	if counts[0] != 2*counts[1] || counts[1] != counts[2] {
		t.Fatalf("weighted mapping counts: %v", counts)
	}
	// Wrong weight count is rejected.
	if c.SetWeightedMapping(0, 1, []float64{1}, 8) {
		t.Fatal("mismatched weights accepted")
	}
}
