package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/gauss"
	"distclass/internal/gm"
	"distclass/internal/mat"
	"distclass/internal/rng"
	"distclass/internal/vec"
)

// q30 is the protocol's default quantum, core.DefaultQ.
const q30 = 1.0 / (1 << 30)

// latticeWeight draws a positive multiple of q30 below limit·q30 — a
// weight the protocol can hold.
func latticeWeight(r *rng.RNG, limit int) float64 {
	return float64(1+r.IntN(limit-1)) * q30
}

func centroidCls(t testing.TB, weights []float64, points ...vec.Vector) core.Classification {
	t.Helper()
	cls := make(core.Classification, len(points))
	for i, p := range points {
		s, err := centroids.Method{}.Summarize(p)
		if err != nil {
			t.Fatalf("Summarize: %v", err)
		}
		cls[i] = core.Collection{Summary: s, Weight: weights[i]}
	}
	return cls
}

func gmCls(t testing.TB, r *rng.RNG, n, d int) core.Classification {
	t.Helper()
	method := gm.Method{}
	cls := make(core.Classification, 0, n)
	// Build non-trivial covariances by merging random point pairs.
	for i := 0; i < n; i++ {
		mk := func() core.Collection {
			v := vec.New(d)
			for j := range v {
				v[j] = r.UniformRange(-5, 5)
			}
			s, err := method.Summarize(v)
			if err != nil {
				t.Fatalf("Summarize: %v", err)
			}
			return core.Collection{Summary: s, Weight: latticeWeight(r, 1<<31)}
		}
		a, b := mk(), mk()
		s, err := method.Merge([]core.Collection{a, b})
		if err != nil {
			t.Fatalf("Merge: %v", err)
		}
		cls = append(cls, core.Collection{Summary: s, Weight: a.Weight + b.Weight})
	}
	return cls
}

// rawCentroids hand-assembles a d = 1 centroids message with the given
// weight exponent and counts, one f64 coordinate per collection.
func rawCentroids(e int64, counts ...uint64) []byte {
	buf := []byte{VersionV2, tagCentroids, byte(len(counts)), 0, 1, 0}
	buf = binary.AppendVarint(buf, e)
	for _, c := range counts {
		buf = binary.AppendUvarint(buf, c)
	}
	for range counts {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(1))
	}
	return buf
}

// sameWeights reports whether two classifications carry bit-identical
// weights in the same order.
func sameWeights(a, b core.Classification) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Weight) != math.Float64bits(b[i].Weight) {
			return false
		}
	}
	return true
}

func TestRoundTripCentroids(t *testing.T) {
	cls := centroidCls(t, []float64{0.5, 1.25}, vec.Of(1, 2, 3), vec.Of(-4, 5, -6))
	data, err := MarshalClassificationCodec(cls, CodecV2)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalClassification(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !sameWeights(got, cls) {
		t.Errorf("weights %v, want %v", got, cls)
	}
	for i := range cls {
		a := cls[i].Summary.(centroids.Centroid).Point
		b := got[i].Summary.(centroids.Centroid).Point
		if !a.Equal(b) {
			t.Errorf("point[%d] = %v, want %v", i, b, a)
		}
	}
}

func TestRoundTripGM(t *testing.T) {
	r := rng.New(5)
	cls := gmCls(t, r, 3, 2)
	data, err := MarshalClassificationCodec(cls, CodecV2)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalClassification(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !sameWeights(got, cls) {
		t.Fatalf("weights %v, want %v", got, cls)
	}
	for i := range cls {
		want := cls[i].Summary.(gm.Summary)
		have := got[i].Summary.(gm.Summary)
		if !want.G.Mean.Equal(have.G.Mean) {
			t.Errorf("mean[%d] = %v, want %v", i, have.G.Mean, want.G.Mean)
		}
		if !want.G.Cov.Equal(have.G.Cov) {
			t.Errorf("cov[%d] = %v, want %v", i, have.G.Cov, want.G.Cov)
		}
	}
}

// TestRoundTripEmpty pins the empty message: the header with a zero
// tag and dimension, then a zero exponent.
func TestRoundTripEmpty(t *testing.T) {
	data, err := MarshalClassificationCodec(core.Classification{}, CodecV2)
	if err != nil {
		t.Fatalf("Marshal empty: %v", err)
	}
	if want := []byte{VersionV2, 0, 0, 0, 0, 0, 0}; string(data) != string(want) {
		t.Errorf("empty message = %v, want %v", data, want)
	}
	got, err := UnmarshalClassification(data)
	if err != nil {
		t.Fatalf("Unmarshal empty: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("len = %d, want 0", len(got))
	}
}

func TestMarshalRejects(t *testing.T) {
	badWeight := centroidCls(t, []float64{1}, vec.Of(1))
	badWeight[0].Weight = -1
	nanWeight := centroidCls(t, []float64{1}, vec.Of(1))
	nanWeight[0].Weight = math.NaN()
	infWeight := centroidCls(t, []float64{1}, vec.Of(1))
	infWeight[0].Weight = math.Inf(1)
	mixed := centroidCls(t, []float64{1}, vec.Of(1))
	gmOne := gmCls(t, rng.New(1), 1, 1)
	mixed = append(mixed, gmOne[0])
	mismatchDim := centroidCls(t, []float64{1, 1}, vec.Of(1), vec.Of(1))
	s2, _ := centroids.Method{}.Summarize(vec.Of(1, 2))
	mismatchDim[1].Summary = s2
	foreign := core.Classification{{Summary: fakeSummary{}, Weight: 1}}
	infCoord := core.Classification{{Summary: centroids.Centroid{Point: vec.Of(1, math.Inf(-1))}, Weight: 1}}
	nanCoord := core.Classification{{Summary: centroids.Centroid{Point: vec.Of(math.NaN())}, Weight: 1}}
	// A d = 2 covariance whose off-diagonal pair sums past the float64
	// range when the decoder symmetrizes it.
	offDiag := func(x float64) core.Classification {
		cov := mat.New(2)
		cov.Set(0, 1, x)
		cov.Set(1, 0, x)
		return core.Classification{{Summary: gm.Summary{G: gauss.Gaussian{Mean: vec.Of(0, 0), Cov: cov}}, Weight: 1}}
	}
	// 1 is 2^53 quanta of 2^-53: one count too many.
	wideSpan := centroidCls(t, []float64{1, 1.0 / (1 << 53)}, vec.Of(1), vec.Of(2))

	tests := []struct {
		name string
		cls  core.Classification
	}{
		{"negative weight", badWeight},
		{"nan weight", nanWeight},
		{"inf weight", infWeight},
		{"mixed types", mixed},
		{"dim mismatch", mismatchDim},
		{"foreign summary", foreign},
		{"count overflow", wideSpan},
		{"inf coordinate", infCoord},
		{"nan coordinate", nanCoord},
		{"gm off-diagonal 1.5e308", offDiag(1.5e308)},
		{"gm off-diagonal -1.5e308", offDiag(-1.5e308)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, codec := range Codecs() {
				if _, err := MarshalClassificationCodec(tt.cls, codec); err == nil {
					t.Errorf("%s: Marshal should reject %s", codec, tt.name)
				}
			}
		})
	}
	// One bit less of span fits.
	if _, err := MarshalClassificationCodec(centroidCls(t, []float64{1, 1.0 / (1 << 52)}, vec.Of(1), vec.Of(2)), CodecV2); err != nil {
		t.Errorf("2^52 quanta rejected: %v", err)
	}
}

// TestMarshalF32Overflow checks that the f32 encoder refuses a finite
// coordinate beyond the float32 range — a centroid, a GM mean or a
// covariance entry — instead of sending the ±Inf the decoder rejects,
// while the f64 encoder carries the same message and it decodes.
func TestMarshalF32Overflow(t *testing.T) {
	gmWith := func(mean vec.Vector, variance float64) core.Classification {
		cov := mat.New(mean.Dim())
		cov.Set(0, 0, variance)
		return core.Classification{{Summary: gm.Summary{G: gauss.Gaussian{Mean: mean, Cov: cov}}, Weight: 1}}
	}
	cases := []struct {
		name string
		cls  core.Classification
	}{
		{"centroid at 1e39", centroidCls(t, []float64{0.5, 0.5}, vec.Of(1, 2), vec.Of(1e39, 0))},
		{"gm variance at -1e39", gmWith(vec.Of(0, 0), -1e39)},
		{"gm mean at -1e39", gmWith(vec.Of(0, -1e39), 1)},
		// A diagonal entry is never summed with a mirror, so even one
		// past half the float64 range decodes.
		{"gm variance at 1.5e308", gmWith(vec.Of(0, 0), 1.5e308)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := MarshalClassificationCodec(tc.cls, CodecV2F32); err == nil {
				t.Errorf("v2f32 encoded a coordinate beyond the float32 range")
			}
			data, err := MarshalClassificationCodec(tc.cls, CodecV2)
			if err != nil {
				t.Fatalf("v2: %v", err)
			}
			if _, err := UnmarshalClassification(data); err != nil {
				t.Errorf("v2 message does not decode: %v", err)
			}
		})
	}
	// The largest finite float32 still fits.
	edge := centroidCls(t, []float64{1}, vec.Of(-math.MaxFloat32))
	if _, err := MarshalClassificationCodec(edge, CodecV2F32); err != nil {
		t.Errorf("v2f32 refused -MaxFloat32: %v", err)
	}
}

type fakeSummary struct{}

func (fakeSummary) Dim() int       { return 1 }
func (fakeSummary) String() string { return "fake" }

func TestUnmarshalRejects(t *testing.T) {
	valid, err := MarshalClassificationCodec(centroidCls(t, []float64{1}, vec.Of(1, 2)), CodecV2)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	badVersion := append([]byte{}, valid...)
	badVersion[0] = 99
	badTag := append([]byte{}, valid...)
	badTag[1] = 77
	truncated := valid[:len(valid)-3]
	trailing := append(append([]byte{}, valid...), 0)
	tooShort := valid[:4]

	tests := []struct {
		name string
		data []byte
	}{
		{"bad version", badVersion},
		{"bad tag", badTag},
		{"truncated", truncated},
		{"trailing bytes", trailing},
		{"short header", tooShort},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := UnmarshalClassification(tt.data); !errors.Is(err, ErrFormat) {
				t.Errorf("error = %v, want ErrFormat", err)
			}
		})
	}
}

func TestUnmarshalRejectsBadWeightAndCov(t *testing.T) {
	// A zero weight count on the wire.
	data, err := MarshalClassificationCodec(centroidCls(t, []float64{1}, vec.Of(1)), CodecV2)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	data[headerLen+1] = 0 // the count after the one-byte exponent
	if _, err := UnmarshalClassification(data); !errors.Is(err, ErrFormat) {
		t.Errorf("zero weight error = %v, want ErrFormat", err)
	}
}

// TestUnmarshalRejectsNonFiniteCentroid overwrites the last centroid
// coordinate of a valid payload, under both coordinate widths, with
// NaN and with each infinity: the decoder must refuse every one.
func TestUnmarshalRejectsNonFiniteCentroid(t *testing.T) {
	for _, codec := range Codecs() {
		valid, err := MarshalClassificationCodec(centroidCls(t, []float64{1}, vec.Of(1, 2)), codec)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			data := append([]byte{}, valid...)
			if codec == CodecV2F32 {
				binary.LittleEndian.PutUint32(data[len(data)-4:], math.Float32bits(float32(x)))
			} else {
				binary.LittleEndian.PutUint64(data[len(data)-8:], math.Float64bits(x))
			}
			if _, err := UnmarshalClassification(data); !errors.Is(err, ErrFormat) {
				t.Errorf("%s with coordinate %v: error = %v, want ErrFormat", codec, x, err)
			}
		}
	}
}

// randomCentroid draws one centroid collection of dimension d and
// weight w.
func randomCentroid(t testing.TB, r *rng.RNG, d int, w float64) core.Collection {
	t.Helper()
	v := vec.New(d)
	for j := range v {
		v[j] = r.UniformRange(-100, 100)
	}
	s, err := centroids.Method{}.Summarize(v)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	return core.Collection{Summary: s, Weight: w}
}

// TestPropertyRoundTrip round-trips random GM classifications under
// the f64 codec: weights, means and covariances come back bit for bit.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		cls := gmCls(t, r, 1+r.IntN(6), 1+r.IntN(4))
		data, err := MarshalClassificationCodec(cls, CodecV2)
		if err != nil {
			return false
		}
		got, err := UnmarshalClassification(data)
		if err != nil || !sameWeights(got, cls) {
			return false
		}
		for i := range cls {
			a, b := cls[i].Summary.(gm.Summary).G, got[i].Summary.(gm.Summary).G
			if !a.Mean.Equal(b.Mean) || !a.Cov.Equal(b.Cov) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnmarshalNeverPanics(t *testing.T) {
	// Arbitrary bytes must produce an error or a valid classification,
	// never a panic.
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("panic on input %v", data)
			}
		}()
		cls, err := UnmarshalClassification(data)
		return err != nil || cls != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseCodec(t *testing.T) {
	for _, c := range Codecs() {
		got, err := ParseCodec(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCodec(%q) = %v, %v", c.String(), got, err)
		}
	}
	for _, s := range []string{"v1", "v9"} {
		if _, err := ParseCodec(s); err == nil {
			t.Errorf("ParseCodec(%s) should fail", s)
		}
	}
	var zero Codec
	if zero != CodecV2 {
		t.Errorf("zero Codec = %s, want the default v2", zero)
	}
}

func TestRoundTripV2GM(t *testing.T) {
	r := rng.New(7)
	cls := gmCls(t, r, 4, 2)
	for _, codec := range Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			data, err := MarshalClassificationCodec(cls, codec)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if data[0] != VersionV2 {
				t.Fatalf("version byte = %d, want %d", data[0], VersionV2)
			}
			got, err := UnmarshalClassification(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			// Weights are exact under both codecs, in the order sent.
			if !sameWeights(got, cls) {
				t.Fatalf("weights %v, want %v", got, cls)
			}
			for i := range got {
				wg := cls[i].Summary.(gm.Summary).G
				gg := got[i].Summary.(gm.Summary).G
				for j := range wg.Mean {
					tol := 0.0
					if codec == CodecV2F32 {
						tol = math.Abs(wg.Mean[j])*1e-6 + 1e-5
					}
					if math.Abs(wg.Mean[j]-gg.Mean[j]) > tol {
						t.Errorf("mean[%d][%d] = %v, want %v", i, j, gg.Mean[j], wg.Mean[j])
					}
				}
			}
		})
	}
}

func TestRoundTripV2SingleBitExact(t *testing.T) {
	// Any single weight, on a lattice or not, is its own odd count of
	// its lowest set bit, so it round-trips bit for bit.
	cls := centroidCls(t, []float64{1.0 / 3}, vec.Of(0.1, -2.7))
	data, err := MarshalClassificationCodec(cls, CodecV2)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := UnmarshalClassification(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if math.Float64bits(got[0].Weight) != math.Float64bits(cls[0].Weight) {
		t.Errorf("weight = %b, want bit-exact %b", got[0].Weight, cls[0].Weight)
	}
	if !got[0].Summary.(centroids.Centroid).Point.Equal(cls[0].Summary.(centroids.Centroid).Point) {
		t.Error("point changed in round trip")
	}
}

func TestRoundTripV2Empty(t *testing.T) {
	for _, codec := range Codecs() {
		data, err := MarshalClassificationCodec(core.Classification{}, codec)
		if err != nil {
			t.Fatalf("Marshal empty: %v", err)
		}
		got, err := UnmarshalClassification(data)
		if err != nil {
			t.Fatalf("Unmarshal empty: %v", err)
		}
		if len(got) != 0 {
			t.Errorf("len = %d, want 0", len(got))
		}
	}
}

func TestUnmarshalNextBatchPayload(t *testing.T) {
	// Batch frames concatenate self-delimiting payloads; UnmarshalNext
	// must walk mixed-codec payloads and report exact consumption.
	r := rng.New(21)
	parts := []core.Classification{
		gmCls(t, r, 2, 3),
		gmCls(t, r, 1, 3),
		gmCls(t, r, 3, 3),
	}
	var buf []byte
	for i, cls := range parts {
		codec := Codecs()[i%2]
		data, err := MarshalClassificationCodec(cls, codec)
		if err != nil {
			t.Fatalf("Marshal[%d]: %v", i, err)
		}
		buf = append(buf, data...)
	}
	pos := 0
	for i := range parts {
		cls, n, err := UnmarshalNext(buf[pos:])
		if err != nil {
			t.Fatalf("UnmarshalNext[%d]: %v", i, err)
		}
		if !sameWeights(cls, parts[i]) {
			t.Fatalf("part %d: weights %v, want %v", i, cls, parts[i])
		}
		pos += n
	}
	if pos != len(buf) {
		t.Errorf("consumed %d of %d bytes", pos, len(buf))
	}
}

// TestUnmarshalVersionLimit pins the one accepted version byte: every
// other version fails with ErrVersion, which still matches the
// non-fatal ErrFormat path livenet counts per frame.
func TestUnmarshalVersionLimit(t *testing.T) {
	data, err := MarshalClassificationCodec(centroidCls(t, []float64{1, 2}, vec.Of(1), vec.Of(2)), CodecV2)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if _, err := UnmarshalClassification(data); err != nil {
		t.Fatalf("decode at VersionV2: %v", err)
	}
	for _, v := range []byte{0, 1, VersionV2 + 1, 0xff} {
		other := append([]byte{}, data...)
		other[0] = v
		_, err := UnmarshalClassification(other)
		if !errors.Is(err, ErrVersion) || !errors.Is(err, ErrFormat) {
			t.Errorf("version %d: error = %v, want ErrVersion wrapping ErrFormat", v, err)
		}
		if _, _, err := UnmarshalNext(other); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: UnmarshalNext error = %v, want ErrVersion", v, err)
		}
	}
}

func TestUnmarshalV2Rejects(t *testing.T) {
	valid, err := MarshalClassificationCodec(centroidCls(t, []float64{1, 3}, vec.Of(1, 2), vec.Of(3, 4)), CodecV2)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	badTag := append([]byte{}, valid...)
	badTag[1] = 77
	zeroCount := append([]byte{}, valid...)
	zeroCount[headerLen+1] = 0
	overlong := append([]byte{}, valid[:headerLen+1]...)
	for i := 0; i < 10; i++ {
		overlong = append(overlong, 0xff)
	}

	tests := []struct {
		name string
		data []byte
	}{
		{"bad tag", badTag},
		{"short header", valid[:5]},
		{"truncated exponent", valid[:headerLen]},
		{"truncated counts", valid[:headerLen+2]},
		{"truncated coords", valid[:len(valid)-5]},
		{"trailing bytes", append(append([]byte{}, valid...), 0)},
		{"zero count", zeroCount},
		{"overlong count", overlong},
		{"count at 2^53", rawCentroids(0, 1<<53)},
		{"exponent out of range", rawCentroids(maxHighExp+1, 1)},
		{"weight overflow", rawCentroids(maxHighExp, 2)},
		{"weight underflow", rawCentroids(minLowExp-1, 1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := UnmarshalClassification(tt.data); !errors.Is(err, ErrFormat) {
				t.Errorf("error = %v, want ErrFormat", err)
			}
		})
	}
}

// TestUnmarshalExponentEdges accepts the extreme weights a float64
// holds exactly: the smallest subnormal, reached from below by a count
// with trailing zeros, and the largest power of two.
func TestUnmarshalExponentEdges(t *testing.T) {
	tests := []struct {
		data []byte
		want float64
	}{
		{rawCentroids(minLowExp, 1), math.SmallestNonzeroFloat64},
		{rawCentroids(minLowExp-52, 1<<52), math.SmallestNonzeroFloat64},
		{rawCentroids(maxHighExp, 1), math.Ldexp(1, maxHighExp)},
		{rawCentroids(maxHighExp-52, 1<<53-1), math.MaxFloat64},
	}
	for _, tt := range tests {
		got, err := UnmarshalClassification(tt.data)
		if err != nil {
			t.Errorf("want %v: %v", tt.want, err)
			continue
		}
		if math.Float64bits(got[0].Weight) != math.Float64bits(tt.want) {
			t.Errorf("weight = %v, want %v", got[0].Weight, tt.want)
		}
	}
}

// TestMessageSize checks that, for given weights, the encoded length
// depends only on k and d: coordinates take a fixed width whatever
// their values, and the message stays within MessageSizeCodec. Unit
// weights (E = 0, counts of 1) take one byte each, so their length is
// known exactly.
func TestMessageSize(t *testing.T) {
	for _, codec := range Codecs() {
		// big is a far-out coordinate the codec can carry: the size must
		// not depend on it.
		coordBytes, big := 8, -1e300
		if codec == CodecV2F32 {
			coordBytes, big = 4, -3e38
		}
		r := rng.New(9)
		gmA, gmB := gmCls(t, r, 4, 3), gmCls(t, r, 4, 3)
		for i := range gmB {
			gmB[i].Weight = gmA[i].Weight
		}
		cases := []struct {
			name   string
			method core.Method
			k, d   int
			a, b   core.Classification
			exact  int
		}{
			{"gm", gm.Method{}, 4, 3, gmA, gmB, 0},
			{"centroids", centroids.Method{}, 2, 2,
				centroidCls(t, []float64{1, 1}, vec.Of(1, 2), vec.Of(3, 4)),
				centroidCls(t, []float64{1, 1}, vec.Of(big, 7.5), vec.Of(math.Pi, 0)),
				headerLen + 1 + 2*(1+2*coordBytes)},
		}
		for _, c := range cases {
			da, err := MarshalClassificationCodec(c.a, codec)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			db, err := MarshalClassificationCodec(c.b, codec)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			if len(da) != len(db) {
				t.Errorf("%s %s: same weights, %d and %d bytes", codec, c.name, len(da), len(db))
			}
			if bound := MessageSizeCodec(c.method, c.k, c.d, codec); len(da) > bound {
				t.Errorf("%s %s: encoded %d bytes, MessageSizeCodec bounds %d", codec, c.name, len(da), bound)
			}
			if c.exact != 0 && len(da) != c.exact {
				t.Errorf("%s %s: encoded %d bytes, want %d", codec, c.name, len(da), c.exact)
			}
		}
	}
}

// TestMessageSizeCodec checks the paper's message-size claim (§2):
// however the weights fall, a k-collection message never exceeds a
// bound that depends on k and d only, and only its weight counts vary
// in length. The bound is tight — counts of 2^49 or more at the
// subnormal exponent take every byte it allows — and f32 coordinates
// shrink it.
func TestMessageSizeCodec(t *testing.T) {
	r := rng.New(9)
	for _, codec := range Codecs() {
		coordBytes := 8
		if codec == CodecV2F32 {
			coordBytes = 4
		}
		for trial := 0; trial < 50; trial++ {
			k, d := 1+r.IntN(6), 1+r.IntN(4)
			ccls := make(core.Classification, k)
			for i := range ccls {
				ccls[i] = randomCentroid(t, r, d, latticeWeight(r, 1<<(1+r.IntN(52))))
			}
			cases := []struct {
				method core.Method
				cls    core.Classification
			}{
				{gm.Method{}, gmCls(t, r, k, d)},
				{centroids.Method{}, ccls},
			}
			for _, c := range cases {
				data, err := MarshalClassificationCodec(c.cls, codec)
				if err != nil {
					t.Fatalf("Marshal: %v", err)
				}
				bound := MessageSizeCodec(c.method, k, d, codec)
				coords := k * perCoords(c.method.Name() == "gm", d) * coordBytes
				if len(data) > bound || len(data) < headerLen+1+k+coords {
					t.Errorf("%s %s k=%d d=%d: %d bytes, want in [%d, %d]",
						codec, c.method.Name(), k, d, len(data), headerLen+1+k+coords, bound)
				}
			}
		}

		cls := gmCls(t, r, 2, 3)
		cls[0].Weight = math.Ldexp(1<<53-1, minLowExp)
		cls[1].Weight = math.Ldexp(1<<53-3, minLowExp)
		data, err := MarshalClassificationCodec(cls, codec)
		if err != nil {
			t.Fatalf("Marshal(%s): %v", codec, err)
		}
		if want := MessageSizeCodec(gm.Method{}, 2, 3, codec); len(data) != want {
			t.Errorf("%s: encoded %d bytes, MessageSizeCodec bounds %d", codec, len(data), want)
		}
	}
	v2 := MessageSizeCodec(gm.Method{}, 2, 2, CodecV2)
	v2f := MessageSizeCodec(gm.Method{}, 2, 2, CodecV2F32)
	if v2f >= v2 {
		t.Errorf("f32 bound %d not below f64 bound %d", v2f, v2)
	}
}

// TestPropertyV2RoundTrip round-trips 10,000 random classifications
// whose weights lie on a power-of-two lattice q, under both codecs:
// every decoded weight is bit-identical to the one sent and a multiple
// of the message's quantum 2^E, and 2^E is no finer than q, so the
// lattice survives the wire. The first case is the one the earlier
// fraction-of-total encoding broke: with a total below 4, a collection
// of weight q = 2^-30 decoded below q.
func TestPropertyV2RoundTrip(t *testing.T) {
	regression := centroidCls(t, []float64{q30, 1.5}, vec.Of(1), vec.Of(2))
	r := rng.New(25)
	for trial := 0; trial < 10000; trial++ {
		cls, qExp, codec := regression, -30, CodecV2
		if trial > 0 {
			qExp = -1 - r.IntN(40)
			n, d := 1+r.IntN(8), 1+r.IntN(4)
			maxBits := 1 + r.IntN(52)
			cls = make(core.Classification, n)
			for i := range cls {
				count := 1 + r.Uint64()%(1<<maxBits-1)
				cls[i] = randomCentroid(t, r, d, math.Ldexp(float64(count), qExp))
			}
			codec = Codecs()[r.IntN(2)]
		}
		data, err := MarshalClassificationCodec(cls, codec)
		if err != nil {
			t.Fatalf("trial %d: Marshal: %v", trial, err)
		}
		got, err := UnmarshalClassification(data)
		if err != nil {
			t.Fatalf("trial %d: Unmarshal: %v", trial, err)
		}
		if !sameWeights(got, cls) {
			t.Fatalf("trial %d (%s): weights %v decoded as %v", trial, codec, cls, got)
		}
		e, _ := binary.Varint(data[headerLen:])
		if e < int64(qExp) {
			t.Fatalf("trial %d: quantum 2^%d finer than q = 2^%d", trial, e, qExp)
		}
		for i, c := range got {
			if _, lo := lowBit(c.Weight); int64(lo) < e {
				t.Fatalf("trial %d: weight[%d] = %v is not a multiple of 2^%d", trial, i, c.Weight, e)
			}
			a := cls[i].Summary.(centroids.Centroid).Point
			b := c.Summary.(centroids.Centroid).Point
			for j := range a {
				tol := 0.0
				if codec == CodecV2F32 {
					tol = math.Abs(a[j]) * 1e-7
				}
				if math.Abs(a[j]-b[j]) > tol {
					t.Fatalf("trial %d: point[%d][%d] = %v, want %v", trial, i, j, b[j], a[j])
				}
			}
		}
	}
}

func benchmarkMarshalCodec(b *testing.B, codec Codec) {
	r := rng.New(11)
	cls := gmCls(b, r, 7, 2)
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		data, err := MarshalClassificationCodec(cls, codec)
		if err != nil {
			b.Fatal(err)
		}
		n = len(data)
	}
	b.ReportMetric(float64(n), "wire_bytes")
}

func benchmarkUnmarshalCodec(b *testing.B, codec Codec) {
	r := rng.New(12)
	data, err := MarshalClassificationCodec(gmCls(b, r, 7, 2), codec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalClassification(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalGMV2(b *testing.B)      { benchmarkMarshalCodec(b, CodecV2) }
func BenchmarkMarshalGMV2F32(b *testing.B)   { benchmarkMarshalCodec(b, CodecV2F32) }
func BenchmarkUnmarshalGMV2(b *testing.B)    { benchmarkUnmarshalCodec(b, CodecV2) }
func BenchmarkUnmarshalGMV2F32(b *testing.B) { benchmarkUnmarshalCodec(b, CodecV2F32) }
