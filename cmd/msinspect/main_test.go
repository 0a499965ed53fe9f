package main

import (
	"testing"

	"masksearch"
)

// TestHistogram16Bins pins histogram16's bin of every stored byte value
// b: b/255 in float32, times 16, truncated, with 1.0 in the top bin.
func TestHistogram16Bins(t *testing.T) {
	for b := range 256 {
		m := &masksearch.Mask{W: 1, H: 1, Bytes: []byte{byte(b)}}
		want := min(int(float32(b)/255*16), 15)
		h := histogram16(m)
		if h[want] != 1 {
			t.Fatalf("byte %d: histogram %v, want its pixel in bin %d", b, h, want)
		}
	}
}
