package phy

import (
	"fmt"
	"math"
	"math/cmplx"
)

// OOKDemodulator is the node-side downlink receiver: a rectifying envelope
// detector, per-chip integrator and comparator — the only demodulator a
// battery-free node can afford (the paper's nodes decode reader commands
// with a handful of discrete components).
type OOKDemodulator struct {
	p Params
}

// NewOOKDemodulator builds the node receiver for the shared numerology.
func NewOOKDemodulator(p Params) (*OOKDemodulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &OOKDemodulator{p: p}, nil
}

func envMean(y []complex128) float64 {
	var s float64
	for _, v := range y {
		s += cmplx.Abs(v)
	}
	return s / float64(len(y))
}

// DemodChips slices nChips chip windows starting at sample start,
// integrates the envelope per chip and compares against an adaptive
// midpoint threshold.
func (d *OOKDemodulator) DemodChips(y []complex128, start, nChips int) ([]byte, error) {
	spc := d.p.SamplesPerChip()
	need := start + nChips*spc
	if start < 0 || need > len(y) {
		return nil, fmt.Errorf("phy: OOK capture too short: need %d, have %d", need, len(y))
	}
	means := make([]float64, nChips)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range means {
		m := envMean(y[start+i*spc : start+(i+1)*spc])
		means[i] = m
		if m < lo {
			lo = m
		}
		if m > hi {
			hi = m
		}
	}
	thresh := (lo + hi) / 2
	out := make([]byte, nChips)
	for i, m := range means {
		if m > thresh {
			out[i] = 1
		}
	}
	return out, nil
}
