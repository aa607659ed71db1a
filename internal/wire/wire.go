// Package wire defines the binary encoding of classifications for
// transmission between nodes — the message format of a deployed
// network (package livenet) as opposed to the in-process simulator,
// which passes values directly.
//
// Layout (little-endian):
//
//	u8      format version (2)
//	u8      method tag (1 = centroids, 2 = gm), bit 7 set when
//	        coordinates are f32
//	u16     number of collections (count)
//	u16     value dimension d
//	varint  E, zigzag: the lowest set-bit exponent over the weights
//	per collection:
//	  uvarint weight·2^-E, a positive integer below 2^53
//	per collection (all of them, in order):
//	  centroids: d coordinates (f64, or f32 when bit 7 of the tag is set)
//	  gm:        d (mean) + d(d+1)/2 (upper-triangular covariance,
//	             row-major) coordinates
//
// Weights travel as integer counts of the message's own quantum 2^E,
// so decoding is lossless: each decoded weight is bit-identical to the
// one sent, a weight on the protocol's q-lattice (q a power of two)
// stays on it, and conservation audits compare bit for bit. E is
// worked out from the weights themselves, so the codec needs no q.
//
// The covariance is packed as its upper triangle — the paper's
// message-size argument in §2 relies on payloads depending only on k
// and d, and symmetric storage keeps the constant minimal. Auxiliary
// vectors are verification instrumentation and are never transmitted.
//
// codec.go holds the Codec type and the encoder and decoder.
package wire

import (
	"errors"
	"fmt"

	"distclass/internal/core"
)

// Method tags.
const (
	tagCentroids = 1
	tagGM        = 2
)

// ErrFormat reports malformed wire data.
var ErrFormat = errors.New("wire: malformed message")

// UnmarshalClassification decodes a whole message produced by
// MarshalClassificationCodec.
func UnmarshalClassification(data []byte) (core.Classification, error) {
	cls, n, err := UnmarshalNext(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(data)-n)
	}
	return cls, nil
}
