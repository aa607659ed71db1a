// Codec selection and the encoder and decoder of the version-2 format
// (the layout is in wire.go).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/gauss"
	"distclass/internal/gm"
	"distclass/internal/mat"
	"distclass/internal/vec"
)

// VersionV2 is the format version byte.
const VersionV2 = 2

// flagF32 marks f32 coordinates in the method-tag byte.
const flagF32 = 0x80

// headerLen is the fixed header size: version, tag, count and dim.
const headerLen = 6

// maxExpLen and maxCountLen bound the varint encodings of E (|E| ≤
// 1074, so its zigzag form stays below 2^14) and of a weight count
// (below 2^53).
const (
	maxExpLen   = 2
	maxCountLen = 8
)

// countLimit bounds a weight count: every integer below 2^53 is an
// exact float64.
const countLimit = 1 << 53

// minLowExp and maxHighExp bound the set bits of a finite float64: the
// lowest bit of the smallest subnormal is 2^-1074, the highest bit of
// the largest finite value 2^1023.
const (
	minLowExp  = -1074
	maxHighExp = 1023
)

// ErrVersion reports a message whose format version byte is not
// VersionV2. It wraps ErrFormat so the non-fatal decode-error handling
// catches it; livenet matches it with errors.Is to down the link,
// since a peer speaking another format will keep speaking it.
var ErrVersion = fmt.Errorf("%w: unsupported format version", ErrFormat)

// Codec selects the coordinate encoding MarshalClassificationCodec
// produces. Weights are exact under both; UnmarshalClassification
// decodes either.
type Codec int

const (
	// CodecV2 carries f64 coordinates. It is the zero value, and so
	// the default.
	CodecV2 Codec = iota
	// CodecV2F32 carries f32 coordinates — the smallest frames, at
	// ~1e-7 relative coordinate error.
	CodecV2F32
)

// Codecs returns all codecs in parse order.
func Codecs() []Codec { return []Codec{CodecV2, CodecV2F32} }

func (c Codec) String() string {
	switch c {
	case CodecV2:
		return "v2"
	case CodecV2F32:
		return "v2f32"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// ParseCodec converts a flag value to a Codec.
func ParseCodec(s string) (Codec, error) {
	for _, c := range Codecs() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown codec %q (have v2, v2f32)", s)
}

// MarshalClassificationCodec encodes a classification produced by one
// of the built-in methods. All collections must carry the same summary
// type and dimension, and every weight must be positive, finite and
// fewer than 2^53 quanta 2^E, E the lowest set-bit exponent among the
// weights; weights on a q-lattice below 2^53·q always are. An empty
// classification encodes to a valid empty message with a zero method
// tag.
func MarshalClassificationCodec(cls core.Classification, codec Codec) ([]byte, error) {
	switch codec {
	case CodecV2:
		return marshal(cls, false)
	case CodecV2F32:
		return marshal(cls, true)
	default:
		return nil, fmt.Errorf("wire: unknown codec %d", int(codec))
	}
}

// UnmarshalNext decodes one self-delimiting message from the front of
// data and returns the number of bytes consumed — the primitive batch
// frames are built on.
func UnmarshalNext(data []byte) (core.Classification, int, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("%w: empty message", ErrFormat)
	}
	if data[0] != VersionV2 {
		return nil, 0, fmt.Errorf("%w %d", ErrVersion, data[0])
	}
	if len(data) < headerLen {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the header", ErrFormat, len(data))
	}
	tag := data[1] &^ flagF32
	f32 := data[1]&flagF32 != 0
	count := int(binary.LittleEndian.Uint16(data[2:4]))
	d := int(binary.LittleEndian.Uint16(data[4:6]))
	e, n := binary.Varint(data[headerLen:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: bad weight exponent", ErrFormat)
	}
	pos := headerLen + n
	// A count below 2^53 has at most 53 significant bits, so no
	// exactly representable count·2^E has E outside this range.
	// Checking it first keeps the per-count bounds free of overflow.
	if e < minLowExp-52 || e > maxHighExp {
		return nil, 0, fmt.Errorf("%w: weight exponent %d out of range", ErrFormat, e)
	}
	if count == 0 {
		return core.Classification{}, pos, nil
	}
	if tag != tagCentroids && tag != tagGM {
		return nil, 0, fmt.Errorf("%w: unknown method tag %d", ErrFormat, tag)
	}
	cls := make(core.Classification, count)
	for i := range cls {
		c, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: bad weight count at byte %d", ErrFormat, pos)
		}
		pos += n
		if c == 0 || c >= countLimit {
			return nil, 0, fmt.Errorf("%w: collection %d has weight count %d outside [1, 2^53)", ErrFormat, i, c)
		}
		lo, hi := e+int64(bits.TrailingZeros64(c)), e+int64(bits.Len64(c)-1)
		if lo < minLowExp || hi > maxHighExp {
			return nil, 0, fmt.Errorf("%w: collection %d weight %d·2^%d is not exactly representable", ErrFormat, i, c, e)
		}
		cls[i].Weight = math.Ldexp(float64(c), int(e))
	}
	for i := range cls {
		sum, n, err := readSummary(data[pos:], tag, d, f32, i)
		if err != nil {
			return nil, 0, err
		}
		pos += n
		cls[i].Summary = sum
	}
	return cls, pos, nil
}

func marshal(cls core.Classification, f32 bool) ([]byte, error) {
	if len(cls) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: %d collections exceed the format limit", len(cls))
	}
	var tag byte
	d := 0
	if len(cls) > 0 {
		switch s := cls[0].Summary.(type) {
		case centroids.Centroid:
			tag = tagCentroids
			d = s.Dim()
		case gm.Summary:
			tag = tagGM
			d = s.Dim()
		default:
			return nil, fmt.Errorf("wire: unsupported summary type %T", cls[0].Summary)
		}
	}
	if d > math.MaxUint16 {
		return nil, fmt.Errorf("wire: dimension %d exceeds the format limit", d)
	}
	e := 0 // the lowest set-bit exponent over the weights
	for i, c := range cls {
		if c.Weight <= 0 || math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0) {
			return nil, fmt.Errorf("wire: collection %d has invalid weight %v", i, c.Weight)
		}
		ok := false
		switch s := c.Summary.(type) {
		case centroids.Centroid:
			ok = tag == tagCentroids && s.Dim() == d
		case gm.Summary:
			ok = tag == tagGM && s.Dim() == d
		}
		if !ok {
			return nil, fmt.Errorf("wire: collection %d is inconsistent with the first", i)
		}
		if _, lo := lowBit(c.Weight); i == 0 || lo < e {
			e = lo
		}
	}

	coordBytes := 8
	if f32 {
		coordBytes = 4
	}
	buf := make([]byte, 0, sizeBound(len(cls), perCoords(tag == tagGM, d), coordBytes))
	tagByte := tag
	if f32 {
		tagByte |= flagF32
	}
	buf = append(buf, VersionV2, tagByte)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cls)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d))
	buf = binary.AppendVarint(buf, int64(e))
	for i, c := range cls {
		m, lo := lowBit(c.Weight)
		shift := lo - e
		if bits.Len64(m)+shift > 53 {
			return nil, fmt.Errorf("wire: collection %d weight %v is 2^53 or more quanta of 2^%d", i, c.Weight, e)
		}
		buf = binary.AppendUvarint(buf, m<<shift)
	}
	// A coordinate that encodes as ±Inf or NaN — non-finite already, or
	// beyond the float32 range under CodecV2F32 — is refused here: the
	// decoder rejects such a message, so sending it would down the link
	// for the sender's fault.
	appendCoord := func(i int, x float64) error {
		if f32 {
			y := float32(x)
			if math.IsInf(float64(y), 0) || math.IsNaN(float64(y)) {
				return fmt.Errorf("wire: collection %d coordinate %v is not a finite float32", i, x)
			}
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(y))
			return nil
		}
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return fmt.Errorf("wire: collection %d coordinate %v is not finite", i, x)
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		return nil
	}
	for i, c := range cls {
		switch s := c.Summary.(type) {
		case centroids.Centroid:
			for _, x := range s.Point {
				if err := appendCoord(i, x); err != nil {
					return nil, err
				}
			}
		case gm.Summary:
			for _, x := range s.G.Mean {
				if err := appendCoord(i, x); err != nil {
					return nil, err
				}
			}
			for r := 0; r < d; r++ {
				for col := r; col < d; col++ {
					x := s.G.Cov.At(r, col)
					// The decoder mirrors each off-diagonal entry and
					// symmetrizes, which sums the pair: refuse an entry
					// that sum overflows, as gauss.New would on decode.
					if col > r && math.IsInf(x+x, 0) {
						return nil, fmt.Errorf("wire: collection %d covariance entry %v overflows when symmetrized", i, x)
					}
					if err := appendCoord(i, x); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return buf, nil
}

// lowBit splits a finite w > 0 into its odd integer mantissa m and the
// exponent lo of its lowest set bit, so that w = m·2^lo.
func lowBit(w float64) (m uint64, lo int) {
	b := math.Float64bits(w)
	m, biased := b&(1<<52-1), int(b>>52)
	if biased == 0 {
		biased = 1 // subnormal: no implicit leading bit
	} else {
		m |= 1 << 52
	}
	tz := bits.TrailingZeros64(m)
	return m >> tz, biased - 1075 + tz
}

// readSummary decodes one collection summary (point, or mean plus
// upper-triangular covariance) from the front of data and reports the
// bytes consumed.
func readSummary(data []byte, tag byte, d int, f32 bool, idx int) (core.Summary, int, error) {
	pos := 0
	readCoord := func() (float64, error) {
		if f32 {
			if pos+4 > len(data) {
				return 0, fmt.Errorf("%w: truncated in collection %d", ErrFormat, idx)
			}
			x := float64(math.Float32frombits(binary.LittleEndian.Uint32(data[pos : pos+4])))
			pos += 4
			return x, nil
		}
		if pos+8 > len(data) {
			return 0, fmt.Errorf("%w: truncated in collection %d", ErrFormat, idx)
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[pos : pos+8]))
		pos += 8
		return x, nil
	}
	switch tag {
	case tagCentroids:
		point := vec.New(d)
		for j := range point {
			x, err := readCoord()
			if err != nil {
				return nil, 0, err
			}
			point[j] = x
		}
		if !point.IsFinite() {
			return nil, 0, fmt.Errorf("%w: collection %d: non-finite centroid coordinate", ErrFormat, idx)
		}
		return centroids.Centroid{Point: point}, pos, nil
	case tagGM:
		mean := vec.New(d)
		for j := range mean {
			x, err := readCoord()
			if err != nil {
				return nil, 0, err
			}
			mean[j] = x
		}
		cov := mat.New(d)
		for r := 0; r < d; r++ {
			for col := r; col < d; col++ {
				x, err := readCoord()
				if err != nil {
					return nil, 0, err
				}
				cov.Set(r, col, x)
				cov.Set(col, r, x)
			}
		}
		g, err := gauss.New(mean, cov)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: collection %d: %v", ErrFormat, idx, err)
		}
		return gm.Summary{G: g}, pos, nil
	default:
		return nil, 0, fmt.Errorf("%w: unknown method tag %d", ErrFormat, tag)
	}
}

// perCoords is the number of coordinates one collection carries: the
// point (or mean), plus the packed covariance for gm.
func perCoords(isGM bool, d int) int {
	if isGM {
		return d + d*(d+1)/2
	}
	return d
}

// sizeBound bounds the encoded size of a k-collection message.
func sizeBound(k, per, coordBytes int) int {
	return headerLen + maxExpLen + k*(maxCountLen+per*coordBytes)
}

// MessageSizeCodec bounds the encoded size in bytes of a k-collection
// classification under the given codec: each weight count takes at
// most 8 bytes, so the bound is a function of k and d only — the
// paper's §2 invariant.
func MessageSizeCodec(method core.Method, k, d int, codec Codec) int {
	coordBytes := 8
	if codec == CodecV2F32 {
		coordBytes = 4
	}
	return sizeBound(k, perCoords(method.Name() == "gm", d), coordBytes)
}
