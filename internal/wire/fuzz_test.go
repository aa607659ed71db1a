package wire

import (
	"math"
	"testing"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/rng"
	"distclass/internal/vec"
)

// FuzzUnmarshalClassification feeds arbitrary bytes to the decoder: it
// must return an error or a classification that re-encodes and decodes
// again to bit-identical weights, never panic. Whatever re-encodes
// under either codec must also decode: the f32 encoder may refuse a
// coordinate beyond the float32 range, but never emit one the decoder
// rejects. Run with
// `go test -fuzz FuzzUnmarshal ./internal/wire`; without -fuzz the seed
// corpus below runs as a regular test.
func FuzzUnmarshalClassification(f *testing.F) {
	// Seed corpus: valid centroids and GM messages plus mutations.
	cCls := core.Classification{}
	for _, x := range []float64{1, -2, 3} {
		s, err := centroids.Method{}.Summarize(vec.Of(x, x*2))
		if err != nil {
			f.Fatal(err)
		}
		cCls = append(cCls, core.Collection{Summary: s, Weight: 0.5})
	}
	// Both codecs, single- and multi-collection, plus a two-payload
	// concatenation like a batched frame body (the trailing bytes
	// exercise the whole-message reject path while the fuzzer mutates
	// toward valid batch walks).
	for _, codec := range Codecs() {
		v2c, err := MarshalClassificationCodec(cCls, codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v2c)
		v2g, err := MarshalClassificationCodec(gmCls(f, rng.New(3), 3, 2), codec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v2g)
		f.Add(append(append([]byte{}, v2g...), v2c...))
	}
	f.Add(rawCentroids(minLowExp, 1, 1<<53-1)) // widest span at the subnormal floor
	f.Add(rawCentroids(maxHighExp, 1))         // the largest weight exponent
	f.Add([]byte{})
	f.Add([]byte{VersionV2})
	f.Add([]byte{VersionV2, tagGM | flagF32, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{VersionV2 + 1, tagGM, 1, 0, 1, 0, 0})
	f.Add(rawCentroids(0, 0))            // zero count
	f.Add(rawCentroids(maxHighExp, 2))   // count·2^E overflows
	f.Add(rawCentroids(minLowExp-52, 1)) // count·2^E underflows
	far := core.Classification{{Summary: centroids.Centroid{Point: vec.Of(1e39, -1)}, Weight: 1}}
	farData, err := MarshalClassificationCodec(far, CodecV2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(farData) // decodes, but is beyond float32: v2f32 must refuse it

	f.Fuzz(func(t *testing.T, data []byte) {
		// The prefix decoder must never panic and never over-consume.
		if cls, n, err := UnmarshalNext(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("UnmarshalNext consumed %d of %d bytes", n, len(data))
			}
			reencode(t, cls)
		}
		if cls, err := UnmarshalClassification(data); err == nil {
			reencode(t, cls)
		}
	})
}

// reencode checks that every decoded centroid is finite, that a
// decoded classification the f32 encoder accepts decodes again, and
// that it re-encodes under v2 and decodes again to bit-identical
// weights (empty classifications have no method tag and re-encode
// trivially).
func reencode(t *testing.T, cls core.Classification) {
	t.Helper()
	for i, c := range cls {
		if p, ok := c.Summary.(centroids.Centroid); ok && !p.Point.IsFinite() {
			t.Fatalf("collection %d decoded to the non-finite centroid %v", i, p.Point)
		}
	}
	if f32, err := MarshalClassificationCodec(cls, CodecV2F32); err == nil {
		if _, err := UnmarshalClassification(f32); err != nil {
			t.Fatalf("v2f32 encoded a message it cannot decode: %v", err)
		}
	}
	data, err := MarshalClassificationCodec(cls, CodecV2)
	if err != nil {
		t.Fatalf("decoded message does not re-encode: %v", err)
	}
	again, err := UnmarshalClassification(data)
	if err != nil {
		t.Fatalf("re-encoded message does not decode: %v", err)
	}
	if len(again) != len(cls) {
		t.Fatalf("re-decoded %d collections, want %d", len(again), len(cls))
	}
	for i := range cls {
		if math.Float64bits(again[i].Weight) != math.Float64bits(cls[i].Weight) {
			t.Fatalf("weight[%d] %v re-decoded as %v", i, cls[i].Weight, again[i].Weight)
		}
	}
}
