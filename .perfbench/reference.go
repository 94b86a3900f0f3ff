package main

import (
	"math"

	"repro/internal/detect"
	"repro/internal/truenorth"
)

// Outputs recorded on the fixed reference sets (trainSeed, refSeed).
// The pipelines are deterministic, so any change here is a change of
// behaviour: a failing check prints the observed values.
const (
	refLAMRStillFPGA     = 0.0044371179263216765
	refLAMRVideoNApprox  = 0.52494256187155319
	refLAMRCotrainParrot = 0.85724398285307279
	refChipDigest        = 0x2679a56eaa5903a
)

var refChipCounts = truenorth.EnergyStats{Ticks: 12288, SynapticEvents: 13575274, NeuronFires: 672651, SpikesRouted: 672651}

// FNV-1a over 64-bit words, for output digests.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 {
	for k := 0; k < 8; k++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// digestDets hashes detections, boxes and exact score bits, in order.
func digestDets(dets []detect.Detection) uint64 {
	h := mix(fnvOffset, uint64(len(dets)))
	for _, d := range dets {
		b := d.Box
		h = mix(mix(mix(mix(h, uint64(b.X)), uint64(b.Y)), uint64(b.W)), uint64(b.H))
		h = mix(h, math.Float64bits(d.Score))
	}
	return h
}

// digestCell hashes a cell histogram and the simulator counts of its run.
func digestCell(hist []float64, e truenorth.EnergyStats) uint64 {
	h := mix(fnvOffset, uint64(len(hist)))
	for _, v := range hist {
		h = mix(h, math.Float64bits(v))
	}
	return mix(mix(mix(mix(h, e.Ticks), e.SynapticEvents), e.NeuronFires), e.SpikesRouted)
}
