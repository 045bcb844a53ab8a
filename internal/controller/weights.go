package controller

import (
	"math"

	"presto/internal/packet"
)

// WeightedLabels approximates fractional path weights by duplicating
// labels in the round-robin sequence the vSwitch iterates over — the
// §3.3 mechanism: weights {0.25, 0.5, 0.25} over paths {p1, p2, p3}
// become the sequence p1, p2, p3, p2. maxSlots bounds the sequence
// length (on-datapath state); weights are scaled to the smallest
// integer counts that fit.
func WeightedLabels(labels []packet.MAC, weights []float64, maxSlots int) []packet.MAC {
	if len(labels) == 0 || len(labels) != len(weights) {
		return nil
	}
	if maxSlots < len(labels) {
		maxSlots = len(labels)
	}
	// Normalize, dropping non-positive weights.
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum == 0 {
		return nil
	}
	// Find the smallest total count <= maxSlots that represents the
	// ratios well: try increasing totals and keep the first whose
	// rounding error is small, falling back to the best seen.
	best := []int(nil)
	bestErr := math.Inf(1)
	for total := len(labels); total <= maxSlots; total++ {
		counts := make([]int, len(labels))
		errAcc := 0.0
		used := 0
		for i, w := range weights {
			if w <= 0 {
				continue
			}
			exact := w / sum * float64(total)
			c := int(math.Round(exact))
			if c < 1 {
				c = 1
			}
			counts[i] = c
			used += c
			errAcc += math.Abs(exact - float64(c))
		}
		if used > maxSlots {
			continue
		}
		if errAcc < bestErr-1e-12 {
			bestErr = errAcc
			best = counts
			if errAcc < 1e-9 {
				break
			}
		}
	}
	if best == nil {
		return labels
	}
	// Interleave round-robin style (largest remaining first) so the
	// duplicated sequence spreads bursts instead of clustering them.
	remaining := append([]int(nil), best...)
	var seq []packet.MAC
	for {
		idx, max := -1, 0
		for i, r := range remaining {
			if r > max {
				idx, max = i, r
			}
		}
		if idx < 0 {
			break
		}
		seq = append(seq, labels[idx])
		remaining[idx]--
		// Rotate start position by moving found counts down evenly:
		// pick next-largest each round, which interleaves naturally.
	}
	return seq
}

// SetWeightedMapping computes and pushes a weighted label list for one
// (source vSwitch, destination host) pair. Weights follow the order of
// the controller's usable trees for that pair.
func (c *Controller) SetWeightedMapping(src, dst packet.HostID, weights []float64, maxSlots int) bool {
	vs := c.vswitches[src]
	if vs == nil {
		return false
	}
	dstLeaf := c.topo.LeafOf(dst)
	labels := c.appendLabels(nil, c.usableTrees(c.topo.LeafOf(src), dstLeaf), dstLeaf, dst)
	if len(labels) != len(weights) {
		return false
	}
	seq := WeightedLabels(labels, weights, maxSlots)
	if seq == nil {
		return false
	}
	vs.SetMapping(dst, seq)
	return true
}
