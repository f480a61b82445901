package service

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/xai-db/relativekeys/internal/feature"
)

// The canonical explanation-cache key (DESIGN.md §15). Two requests share a
// cache entry exactly when they would provoke byte-identical solves: same
// context content (Version — the core.Context mutation stamp), same solver
// configuration fingerprint, same conformity bound, and the same labeled
// instance. The encoding must therefore be injective — distinct tuples map to
// distinct byte strings — and that property is load-bearing enough to carry
// its own fuzz target (FuzzCacheKey): a collision would silently serve one
// instance's explanation as another's.
//
// Framing: every variable-length field is length-prefixed and every scalar is
// uvarint- or fixed-width-encoded, so no field can bleed into the next. Alpha
// travels as its IEEE-754 bit pattern — the cache must distinguish bounds
// that differ in the last ulp, because the solver does.

// CacheKey is the decoded form of one explanation-cache key.
type CacheKey struct {
	Version uint64           // context mutation stamp at solve time
	Config  string           // solver configuration fingerprint (e.g. "lazy/p=4")
	Alpha   float64          // conformity bound the solve ran under
	Y       feature.Label    // predicted label
	X       feature.Instance // encoded attribute values
}

// cacheKeyMagic versions the encoding itself, so a future layout change can
// never be confused with today's bytes.
const cacheKeyMagic = byte(1)

// EncodeCacheKey renders the tuple in the canonical framing. The result is
// used as a map key, so it returns string, not []byte.
func EncodeCacheKey(k CacheKey) string {
	buf := make([]byte, 0, 2+binary.MaxVarintLen64*3+len(k.Config)+8+len(k.X)*binary.MaxVarintLen32)
	buf = append(buf, cacheKeyMagic)
	buf = binary.AppendUvarint(buf, k.Version)
	buf = binary.AppendUvarint(buf, uint64(len(k.Config)))
	buf = append(buf, k.Config...)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(k.Alpha))
	buf = binary.AppendVarint(buf, int64(k.Y))
	buf = binary.AppendUvarint(buf, uint64(len(k.X)))
	for _, v := range k.X {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return string(buf)
}

// minUvarint and minVarint read like binary.Uvarint/Varint but additionally
// reject non-minimal encodings (e.g. 0xf0 0x00 for 0x70), which Go's readers
// accept. Without the check two distinct byte strings could decode to the
// same key, breaking the canonical-form property the fuzz target holds:
// every decodable string re-encodes to itself.
func minUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n != len(binary.AppendUvarint(nil, v)) {
		return 0, -1
	}
	return v, n
}

func minVarint(b []byte) (int64, int) {
	v, n := binary.Varint(b)
	if n <= 0 || n != len(binary.AppendVarint(nil, v)) {
		return 0, -1
	}
	return v, n
}

// DecodeCacheKey parses a canonical key, rejecting malformed, non-minimal, or
// trailing-garbage input. Decode(Encode(k)) == k for every key, which is what
// makes the encoding injective: two tuples sharing a byte string would both
// have to decode from it.
func DecodeCacheKey(s string) (CacheKey, error) {
	b := []byte(s)
	var k CacheKey
	if len(b) == 0 || b[0] != cacheKeyMagic {
		return k, fmt.Errorf("service: cache key: bad magic")
	}
	b = b[1:]
	version, n := minUvarint(b)
	if n <= 0 {
		return k, fmt.Errorf("service: cache key: truncated version")
	}
	b = b[n:]
	clen, n := minUvarint(b)
	if n <= 0 || uint64(len(b)-n) < clen {
		return k, fmt.Errorf("service: cache key: truncated config")
	}
	b = b[n:]
	k.Config = string(b[:clen])
	b = b[clen:]
	if len(b) < 8 {
		return k, fmt.Errorf("service: cache key: truncated alpha")
	}
	k.Alpha = math.Float64frombits(binary.BigEndian.Uint64(b[:8]))
	b = b[8:]
	y, n := minVarint(b)
	if n <= 0 || y < math.MinInt32 || y > math.MaxInt32 {
		return k, fmt.Errorf("service: cache key: bad label")
	}
	b = b[n:]
	xlen, n := minUvarint(b)
	// Every value takes at least one byte, so a length past the remaining
	// input cannot decode; rejecting it here keeps a forged length from
	// sizing the allocation below.
	if n <= 0 || uint64(len(b)-n) < xlen {
		return k, fmt.Errorf("service: cache key: truncated instance")
	}
	b = b[n:]
	x := make(feature.Instance, 0, xlen)
	for i := uint64(0); i < xlen; i++ {
		v, n := minVarint(b)
		if n <= 0 || v < math.MinInt32 || v > math.MaxInt32 {
			return k, fmt.Errorf("service: cache key: bad value at %d", i)
		}
		b = b[n:]
		x = append(x, feature.Value(v))
	}
	if len(b) != 0 {
		return k, fmt.Errorf("service: cache key: %d trailing bytes", len(b))
	}
	k.Version = version
	k.Y = feature.Label(y)
	if len(x) > 0 {
		k.X = x
	}
	return k, nil
}
