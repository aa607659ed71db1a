// Codec selection and the version-2 wire format.
//
// v2 layout (little-endian):
//
//	u8  format version (2)
//	u8  method tag (1 = centroids, 2 = gm), bit 7 set when coordinates
//	    are f32
//	u16 number of collections (count)
//	u16 value dimension d
//	f64 total weight (exact)
//	per collection except the last:
//	  u32 weight fraction: floor(weight/total * 2^32), clamped to
//	      [1, 2^32-1]
//	per collection (all of them, in order):
//	  centroids: d coordinates (f64, or f32 when bit 7 of the tag is set)
//	  gm:        d (mean) + d(d+1)/2 (upper-triangular covariance,
//	             row-major) coordinates
//
// The last collection carries no explicit weight: the decoder assigns
// it total minus the sum of the decoded fractions, so the decoded
// weights always sum to the transmitted f64 total to within one ulp
// and the conservation audit stays exact. The marshaller moves the
// heaviest collection to the last position so the residual is always
// positive (collections are an unordered set, so the permutation is
// harmless). Single-collection messages are bit-exact.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/gauss"
	"distclass/internal/gm"
	"distclass/internal/mat"
	"distclass/internal/vec"
)

// VersionV2 is the quantized-weight format version.
const VersionV2 = 2

// VersionMax is the newest format version this package decodes.
const VersionMax = VersionV2

// flagF32 marks f32 coordinates in the v2 method-tag byte.
const flagF32 = 0x80

// headerV2 is the fixed v2 header size: version, tag, count, dim and
// the exact f64 total weight.
const headerV2 = 14

// twoNeg32 converts a u32 weight fraction back to a fraction of the
// total.
const twoNeg32 = 1.0 / (1 << 32)

// ErrVersion reports a message whose format version is newer than the
// decoder accepts. It wraps ErrFormat so existing non-fatal
// decode-error handling catches it; callers that care about version
// negotiation specifically (a persistent condition, unlike transient
// corruption) match it with errors.Is.
var ErrVersion = fmt.Errorf("%w: unsupported format version", ErrFormat)

// Codec selects the encoding MarshalClassificationCodec produces.
// Every codec decodes with the same UnmarshalClassification.
type Codec int

const (
	// CodecV1 is the original format: f64 weights and coordinates.
	CodecV1 Codec = iota
	// CodecV2 quantizes weights to u32 fractions of an exact f64 total
	// and keeps f64 coordinates.
	CodecV2
	// CodecV2F32 is CodecV2 with f32 coordinates — the smallest frames,
	// at ~1e-7 relative coordinate error.
	CodecV2F32
)

// Codecs returns all codecs in parse order.
func Codecs() []Codec { return []Codec{CodecV1, CodecV2, CodecV2F32} }

func (c Codec) String() string {
	switch c {
	case CodecV1:
		return "v1"
	case CodecV2:
		return "v2"
	case CodecV2F32:
		return "v2f32"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// Version returns the format version byte the codec emits.
func (c Codec) Version() int {
	if c == CodecV1 {
		return Version
	}
	return VersionV2
}

// ParseCodec converts a flag value to a Codec.
func ParseCodec(s string) (Codec, error) {
	for _, c := range Codecs() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown codec %q (have v1, v2, v2f32)", s)
}

// MarshalClassificationCodec encodes a classification with the given
// codec. CodecV1 is byte-identical to MarshalClassification; the v2
// codecs permute collections (heaviest last) but preserve the weight
// total exactly.
func MarshalClassificationCodec(cls core.Classification, codec Codec) ([]byte, error) {
	switch codec {
	case CodecV1:
		return MarshalClassification(cls)
	case CodecV2:
		return marshalV2(cls, false)
	case CodecV2F32:
		return marshalV2(cls, true)
	default:
		return nil, fmt.Errorf("wire: unknown codec %d", int(codec))
	}
}

// UnmarshalClassificationLimit decodes a whole message, rejecting
// format versions newer than maxVersion with ErrVersion. maxVersion 0
// (or out of range) means VersionMax. Livenet uses the limit to model
// deployments where an old peer receives new-format frames.
func UnmarshalClassificationLimit(data []byte, maxVersion int) (core.Classification, error) {
	cls, n, err := UnmarshalNext(data, maxVersion)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(data)-n)
	}
	return cls, nil
}

// UnmarshalNext decodes one self-delimiting message from the front of
// data and returns the number of bytes consumed — the primitive batch
// frames are built on. maxVersion 0 (or out of range) means
// VersionMax.
func UnmarshalNext(data []byte, maxVersion int) (core.Classification, int, error) {
	if maxVersion <= 0 || maxVersion > VersionMax {
		maxVersion = VersionMax
	}
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("%w: empty message", ErrFormat)
	}
	v := int(data[0])
	if v > maxVersion {
		return nil, 0, fmt.Errorf("%w %d, newest supported here %d", ErrVersion, v, maxVersion)
	}
	switch v {
	case Version:
		return unmarshalV1(data)
	case VersionV2:
		return unmarshalV2(data)
	default:
		return nil, 0, fmt.Errorf("%w %d", ErrVersion, v)
	}
}

func marshalV2(cls core.Classification, f32 bool) ([]byte, error) {
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
	total := 0.0
	heaviest := 0
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
		total += c.Weight
		if c.Weight > cls[heaviest].Weight {
			heaviest = i
		}
	}
	if len(cls) > 0 && (total <= 0 || math.IsInf(total, 0)) {
		return nil, fmt.Errorf("wire: total weight %v is not encodable", total)
	}

	// Heaviest collection last: it absorbs the quantization residual,
	// and being at least total/count it always stays positive.
	order := make([]int, len(cls))
	for i := range order {
		order[i] = i
	}
	if len(order) > 0 {
		last := len(order) - 1
		order[heaviest], order[last] = order[last], order[heaviest]
	}

	coordBytes := 8
	if f32 {
		coordBytes = 4
	}
	perCoords := d
	if tag == tagGM {
		perCoords += d * (d + 1) / 2
	}
	size := headerV2 + 4*max(0, len(cls)-1) + len(cls)*perCoords*coordBytes
	buf := make([]byte, 0, size)
	tagByte := tag
	if f32 {
		tagByte |= flagF32
	}
	buf = append(buf, VersionV2, tagByte)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cls)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(total))
	for _, i := range order[:max(0, len(order)-1)] {
		buf = binary.LittleEndian.AppendUint32(buf, quantizeWeight(cls[i].Weight, total))
	}
	appendCoord := func(x float64) {
		if f32 {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(x)))
		} else {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	for _, i := range order {
		switch s := cls[i].Summary.(type) {
		case centroids.Centroid:
			for _, x := range s.Point {
				appendCoord(x)
			}
		case gm.Summary:
			for _, x := range s.G.Mean {
				appendCoord(x)
			}
			for r := 0; r < d; r++ {
				for col := r; col < d; col++ {
					appendCoord(s.G.Cov.At(r, col))
				}
			}
		}
	}
	return buf, nil
}

// quantizeWeight maps a weight to its u32 fraction of the total,
// rounding down and clamping to [1, 2^32-1] so every decoded weight
// stays strictly positive.
func quantizeWeight(w, total float64) uint32 {
	f := math.Floor(w / total * (1 << 32))
	if f < 1 {
		return 1
	}
	if f >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(f)
}

// unmarshalV1 decodes one version-1 message prefix and reports the
// bytes consumed.
func unmarshalV1(data []byte) (core.Classification, int, error) {
	if len(data) < 6 {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the header", ErrFormat, len(data))
	}
	tag := data[1]
	count := int(binary.LittleEndian.Uint16(data[2:4]))
	d := int(binary.LittleEndian.Uint16(data[4:6]))
	pos := 6
	readF64 := func() (float64, error) {
		if pos+8 > len(data) {
			return 0, fmt.Errorf("%w: truncated at byte %d", ErrFormat, pos)
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(data[pos : pos+8]))
		pos += 8
		return x, nil
	}
	if count == 0 {
		return core.Classification{}, pos, nil
	}
	if tag != tagCentroids && tag != tagGM {
		return nil, 0, fmt.Errorf("%w: unknown method tag %d", ErrFormat, tag)
	}
	cls := make(core.Classification, 0, count)
	for i := 0; i < count; i++ {
		w, err := readF64()
		if err != nil {
			return nil, 0, err
		}
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, 0, fmt.Errorf("%w: collection %d has invalid weight %v", ErrFormat, i, w)
		}
		sum, n, err := readSummary(data[pos:], tag, d, false, i)
		if err != nil {
			return nil, 0, err
		}
		pos += n
		cls = append(cls, core.Collection{Summary: sum, Weight: w})
	}
	return cls, pos, nil
}

// unmarshalV2 decodes one version-2 message prefix and reports the
// bytes consumed.
func unmarshalV2(data []byte) (core.Classification, int, error) {
	if len(data) < headerV2 {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the v2 header", ErrFormat, len(data))
	}
	tag := data[1] &^ flagF32
	f32 := data[1]&flagF32 != 0
	count := int(binary.LittleEndian.Uint16(data[2:4]))
	d := int(binary.LittleEndian.Uint16(data[4:6]))
	total := math.Float64frombits(binary.LittleEndian.Uint64(data[6:headerV2]))
	pos := headerV2
	if count == 0 {
		//lint:allow floatcmp wire validation: an empty message must carry a bit-exact zero total
		if total != 0 {
			return nil, 0, fmt.Errorf("%w: empty message with total weight %v", ErrFormat, total)
		}
		return core.Classification{}, pos, nil
	}
	if tag != tagCentroids && tag != tagGM {
		return nil, 0, fmt.Errorf("%w: unknown method tag %d", ErrFormat, tag)
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return nil, 0, fmt.Errorf("%w: invalid total weight %v", ErrFormat, total)
	}
	weights := make([]float64, count)
	partial := 0.0
	for i := 0; i < count-1; i++ {
		if pos+4 > len(data) {
			return nil, 0, fmt.Errorf("%w: truncated at byte %d", ErrFormat, pos)
		}
		frac := binary.LittleEndian.Uint32(data[pos : pos+4])
		pos += 4
		if frac == 0 {
			return nil, 0, fmt.Errorf("%w: collection %d has zero weight fraction", ErrFormat, i)
		}
		weights[i] = float64(frac) * twoNeg32 * total
		// A subnormal total can scale a nonzero fraction down to 0.
		if weights[i] <= 0 {
			return nil, 0, fmt.Errorf("%w: collection %d weight underflows to %v", ErrFormat, i, weights[i])
		}
		partial += weights[i]
	}
	// The last collection takes the exact residual so the decoded
	// weights sum back to the transmitted total.
	weights[count-1] = total - partial
	if weights[count-1] <= 0 || math.IsNaN(weights[count-1]) {
		return nil, 0, fmt.Errorf("%w: residual weight %v is not positive", ErrFormat, weights[count-1])
	}
	cls := make(core.Classification, 0, count)
	for i := 0; i < count; i++ {
		sum, n, err := readSummary(data[pos:], tag, d, f32, i)
		if err != nil {
			return nil, 0, err
		}
		pos += n
		cls = append(cls, core.Collection{Summary: sum, Weight: weights[i]})
	}
	return cls, pos, nil
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

// MessageSizeCodec returns the encoded size in bytes of a k-collection
// classification under the given codec — still a function of k and d
// only, the paper's §2 invariant.
func MessageSizeCodec(method core.Method, k, d int, codec Codec) int {
	if codec == CodecV1 {
		return MessageSize(method, k, d)
	}
	coordBytes := 8
	if codec == CodecV2F32 {
		coordBytes = 4
	}
	per := d
	if method.Name() == "gm" {
		per += d * (d + 1) / 2
	}
	return headerV2 + 4*max(0, k-1) + k*per*coordBytes
}
