package exec

import (
	"encoding/binary"
	"math"

	"crowddb/internal/storage"
)

// Hash keys. GROUP BY, DISTINCT and the hash join look rows up by a
// binary key encoded into a scratch buffer the operator reuses across
// rows, so the lookup itself (m[string(buf)]) allocates nothing. Both
// encodings are self-delimiting — a tag byte, then fixed-width numbers or
// length-prefixed text — so a concatenation of component keys is equal
// iff every component is, and text holding any byte sequence cannot
// forge a multi-column collision.

// canonicalNaN is the one bit pattern every NaN encodes as.
var canonicalNaN = math.Float64bits(math.NaN())

// appendGroupKey appends v's GROUP BY / DISTINCT identity to dst: the
// kind byte, then the raw int64 or float64 bits, the bool byte, or a
// uvarint length and the text bytes. Identity is kind-tagged — 1, 1.0
// and '1' form three groups — and exact on float bits, except that every
// NaN is canonicalised so all NaNs form one group.
func appendGroupKey(dst []byte, v storage.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case storage.KindBool:
		b, _ := v.AsBool()
		dst = append(dst, boolByte(b))
	case storage.KindInt:
		i, _ := v.AsInt()
		dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
	case storage.KindFloat:
		f, _ := v.AsFloat()
		bits := math.Float64bits(f)
		if f != f {
			bits = canonicalNaN
		}
		dst = binary.LittleEndian.AppendUint64(dst, bits)
	case storage.KindText:
		s, _ := v.AsText()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// appendJoinKey appends the encoding of one join-key tuple to dst, with
// the equality semantics of the `=` operator: numbers compare across
// int/float, so both encode as one numeric class holding the float64
// bits of their float value, with -0 canonicalised to +0 (-0 = 0). ok is
// false when any value is NULL or NaN — neither equals anything, so the
// row can never match.
func appendJoinKey(dst []byte, vals []storage.Value) ([]byte, bool) {
	for _, v := range vals {
		switch v.Kind() {
		case storage.KindNull:
			return dst, false
		case storage.KindBool:
			b, _ := v.AsBool()
			dst = append(dst, 'b', boolByte(b))
		case storage.KindInt, storage.KindFloat:
			f, _ := v.AsFloat()
			if f != f {
				return dst, false
			}
			if f == 0 {
				f = 0 // -0 → +0
			}
			dst = append(dst, 'n')
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		case storage.KindText:
			t, _ := v.AsText()
			dst = append(dst, 't')
			dst = binary.AppendUvarint(dst, uint64(len(t)))
			dst = append(dst, t...)
		}
	}
	return dst, true
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
