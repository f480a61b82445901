package feature

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// codeWidth returns the byte width a code below n is stored in: 1, 2 or 4,
// the narrowest that holds every code of a domain of n values.
func codeWidth(n int) int {
	switch {
	case n <= 1<<8:
		return 1
	case n <= 1<<16:
		return 2
	default:
		return 4
	}
}

// Widths returns the code widths of rows over s: values in the width of the
// largest attribute cardinality, labels in the width of the label count.
func Widths(s *Schema) (value, label int) {
	maxCard := 0
	for i := range s.Attrs {
		maxCard = max(maxCard, s.Attrs[i].Cardinality())
	}
	return codeWidth(maxCard), codeWidth(len(s.Labels))
}

// Rows is a table of labeled rows at code width: every value and label is
// stored little-endian in the width Widths derives from the schema, the
// values row-major in one section and the labels in another — the layout of
// a v3 snapshot's row sections (DESIGN.md §9), so a table is encoded and
// decoded with one copy per section. A row costs k·value-width + label-width
// bytes; a []Labeled spends a slice header, a label and k int32s on it.
//
// Rows never truncates a code: Append and Set panic on a row whose arity or
// codes do not fit the table, so callers validate rows against the schema
// first (core.ValidateLabeled). Row, Labeled and AppendInstance return
// copies; Value, Label and AgreesOn read codes in place. Build a table with
// NewRows or ReadRows; the zero Rows has no widths.
type Rows struct {
	k      int    // values per row
	vw, lw int    // value and label widths in bytes
	vals   []byte // k values a row, row after row
	labels []byte // one label a row
}

// NewRows returns an empty table at s's code widths with room for capacity
// rows.
func NewRows(s *Schema, capacity int) *Rows {
	vw, lw := Widths(s)
	k := s.NumFeatures()
	return &Rows{k: k, vw: vw, lw: lw, vals: make([]byte, 0, capacity*k*vw), labels: make([]byte, 0, capacity*lw)}
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.labels) / r.lw }

// Widths returns the table's value and label widths in bytes.
func (r *Rows) Widths() (value, label int) { return r.vw, r.lw }

// Arity returns the number of values a row holds.
func (r *Rows) Arity() int { return r.k }

// ScatterValues sets bit i−from of words[c] for every row i of [from, to),
// which spans at most 64 rows, c the row's code of attribute a: one word of
// each of the attribute's posting lists, built a column at a time. It
// reports false, at once, on a code words cannot index.
func (r *Rows) ScatterValues(words []uint64, a, from, to int) bool {
	return scatter(words, r.vals, (from*r.k+a)*r.vw, r.k*r.vw, to-from, r.vw)
}

// ScatterLabels is ScatterValues over the rows' labels.
func (r *Rows) ScatterLabels(words []uint64, from, to int) bool {
	return scatter(words, r.labels, from*r.lw, r.lw, to-from, r.lw)
}

// scatter sets bit j of words[c] for the count width-byte codes c of b, code
// j at byte off+j·stride, under one width switch, and reports false at the
// first code words cannot index.
func scatter(words []uint64, b []byte, off, stride, count, width int) bool {
	n := uint32(len(words))
	switch width {
	case 1:
		for j := 0; j < count; j, off = j+1, off+stride {
			if c := uint32(b[off]); c < n {
				words[c] |= 1 << j
			} else {
				return false
			}
		}
	case 2:
		for j := 0; j < count; j, off = j+1, off+stride {
			if c := uint32(binary.LittleEndian.Uint16(b[off:])); c < n {
				words[c] |= 1 << j
			} else {
				return false
			}
		}
	default:
		for j := 0; j < count; j, off = j+1, off+stride {
			if c := binary.LittleEndian.Uint32(b[off:]); c < n {
				words[c] |= 1 << j
			} else {
				return false
			}
		}
	}
	return true
}

// Value returns the code of attribute a in row i.
func (r *Rows) Value(i, a int) Value {
	return Value(readCode(r.vals[(i*r.k+a)*r.vw:], r.vw))
}

// Label returns the label code of row i.
func (r *Rows) Label(i int) Label {
	return Label(readCode(r.labels[i*r.lw:], r.lw))
}

// AgreesOn reports whether row i equals x on the feature index set E,
// reading the row in place.
func (r *Rows) AgreesOn(i int, x Instance, E []int) bool {
	for _, a := range E {
		if r.Value(i, a) != x[a] {
			return false
		}
	}
	return true
}

// AppendInstance appends row i's values to dst and returns the extended
// slice: a copy that later writes to the table do not reach.
func (r *Rows) AppendInstance(dst Instance, i int) Instance {
	for a := 0; a < r.k; a++ {
		dst = append(dst, r.Value(i, a))
	}
	return dst
}

// Row returns a copy of row i.
func (r *Rows) Row(i int) Labeled {
	return Labeled{X: r.AppendInstance(make(Instance, 0, r.k), i), Y: r.Label(i)}
}

// Labeled returns a copy of every row, the instances sharing one backing
// array.
func (r *Rows) Labeled() []Labeled {
	n := r.Len()
	flat := make([]Value, 0, n*r.k)
	out := make([]Labeled, n)
	for i := range out {
		flat = r.AppendInstance(flat, i)
		out[i] = Labeled{X: flat[i*r.k : (i+1)*r.k : (i+1)*r.k], Y: r.Label(i)}
	}
	return out
}

// Append adds li as the last row. It panics when li does not fit the table.
func (r *Rows) Append(li Labeled) {
	r.checkFits(li)
	n := len(r.vals)
	r.vals = slices.Grow(r.vals, r.k*r.vw)[:n+r.k*r.vw]
	putCodes(r.vals[n:], li.X, r.vw)
	r.labels = appendCode(r.labels, uint32(li.Y), r.lw)
}

// Set overwrites row i with li. It panics when li does not fit the table.
func (r *Rows) Set(i int, li Labeled) {
	r.checkFits(li)
	putCodes(r.vals[i*r.k*r.vw:], li.X, r.vw)
	putCode(r.labels[i*r.lw:], uint32(li.Y), r.lw)
}

// AppendFrom adds row i of src as the last row, rewriting its codes at this
// table's widths. It panics when the row does not fit.
func (r *Rows) AppendFrom(src *Rows, i int) {
	if src.k != r.k {
		panic(fmt.Sprintf("feature: row of %d values appended to a table of %d", src.k, r.k))
	}
	if src.vw == r.vw && src.lw == r.lw {
		r.vals = append(r.vals, src.vals[i*r.k*r.vw:(i+1)*r.k*r.vw]...)
		r.labels = append(r.labels, src.labels[i*r.lw:(i+1)*r.lw]...)
		return
	}
	for a := 0; a < r.k; a++ {
		r.vals = appendCode(r.vals, mustFit(uint32(src.Value(i, a)), r.vw), r.vw)
	}
	r.labels = appendCode(r.labels, mustFit(uint32(src.Label(i)), r.lw), r.lw)
}

// Slice returns rows [from, to) as a table sharing r's storage. It is capped
// there: appending to it copies rather than overwriting rows of r.
func (r *Rows) Slice(from, to int) *Rows {
	vs, ve := from*r.k*r.vw, to*r.k*r.vw
	ls, le := from*r.lw, to*r.lw
	return &Rows{k: r.k, vw: r.vw, lw: r.lw, vals: r.vals[vs:ve:ve], labels: r.labels[ls:le:le]}
}

// Repack returns the table at s's code widths: r itself when its widths are
// already s's, otherwise a copy with every code rewritten. A code s's widths
// cannot hold is an error, never a truncation. Repack checks widths only;
// Validate checks domains.
func (r *Rows) Repack(s *Schema) (*Rows, error) {
	if r.k != s.NumFeatures() {
		return nil, fmt.Errorf("feature: rows of %d values, schema has %d attributes", r.k, s.NumFeatures())
	}
	vw, lw := Widths(s)
	if r.vw == vw && r.lw == lw {
		return r, nil
	}
	out := NewRows(s, r.Len())
	for i := 0; i < r.Len(); i++ {
		for a := 0; a < r.k; a++ {
			if !fits(uint32(r.Value(i, a)), vw) {
				return nil, fmt.Errorf("feature: row %d: value %d does not fit %d bytes", i, r.Value(i, a), vw)
			}
		}
		if !fits(uint32(r.Label(i)), lw) {
			return nil, fmt.Errorf("feature: row %d: label %d does not fit %d bytes", i, r.Label(i), lw)
		}
		out.AppendFrom(r, i)
	}
	return out, nil
}

// Validate checks that the table holds rows of s: one value per attribute,
// every value inside its attribute's domain and every label inside the
// label space. The error names the first offending row.
func (r *Rows) Validate(s *Schema) error {
	if r.k != s.NumFeatures() {
		return fmt.Errorf("feature: rows of %d values, schema has %d attributes", r.k, s.NumFeatures())
	}
	bounds := make([]uint32, r.k)
	for a := range bounds {
		bounds[a] = uint32(s.Attrs[a].Cardinality())
	}
	if j := firstOutOfBounds(r.vals, r.vw, bounds); j >= 0 {
		i, a := j/r.k, j%r.k
		return fmt.Errorf("feature: row %d: value %d out of domain for attribute %q", i, readCode(r.vals[j*r.vw:], r.vw), s.Attrs[a].Name)
	}
	if i := firstOutOfBounds(r.labels, r.lw, []uint32{uint32(len(s.Labels))}); i >= 0 {
		return fmt.Errorf("feature: row %d: label %d outside the %d labels", i, readCode(r.labels[i*r.lw:], r.lw), len(s.Labels))
	}
	return nil
}

// firstOutOfBounds returns the index of the first width-byte code in b not
// below its bound, code j checked against bounds[j%len(bounds)], or -1. A
// branch-free pass (inBounds) clears a table without such a code, the hot
// part of every bulk load; only a table with one is walked again, code by
// code, to name the first.
func firstOutOfBounds(b []byte, width int, bounds []uint32) int {
	if len(bounds) == 0 || inBounds(b, width, bounds) {
		return -1 // rows of no values, or every code inside its bound
	}
	a := 0
	next := func() {
		if a++; a == len(bounds) {
			a = 0
		}
	}
	switch width {
	case 1:
		for j, c := range b {
			if uint32(c) >= bounds[a] {
				return j
			}
			next()
		}
	case 2:
		for j := 0; j+2 <= len(b); j += 2 {
			if uint32(binary.LittleEndian.Uint16(b[j:])) >= bounds[a] {
				return j / 2
			}
			next()
		}
	default:
		for j := 0; j+4 <= len(b); j += 4 {
			if binary.LittleEndian.Uint32(b[j:]) >= bounds[a] {
				return j / 4
			}
			next()
		}
	}
	return -1
}

// inBounds reports whether b holds whole rows of len(bounds) width-byte
// codes, each below its column's bound, without a branch on any code. It
// compares 8/width codes a word at a time: a block of that many rows is
// len(bounds) words, each checked against a word of its lanes' tops, the
// largest code each lane's column admits. The rows after the last whole
// block are checked a code at a time, ORing top−code and testing the sign
// once at the end.
func inBounds(b []byte, width int, bounds []uint32) bool {
	k := len(bounds)
	if len(b)%(k*width) != 0 {
		return false // a partial row: let the exact walk judge it
	}
	lanes, laneBits := 8/width, 8*width
	var high uint64 // the top bit of every lane
	for l := 0; l < lanes; l++ {
		high |= 1 << (l*laneBits + laneBits - 1)
	}
	top := make([]uint64, k)
	for a, n := range bounds {
		if n == 0 {
			return false // a column that admits no code
		}
		top[a] = min(uint64(n)-1, 1<<laneBits-1)
	}
	tops := make([]uint64, k) // tops[w]: the tops of a block's word w
	for j := 0; j < lanes*k; j++ {
		tops[j/lanes] |= top[j%k] << (j % lanes * laneBits)
	}

	// Lane by lane, with c the code and t its top: z's top bit is set when
	// t's low bits are at least c's, and c > t when c has the top bit t
	// lacks, or both agree on it and z's is clear. No borrow crosses a lane:
	// t|high is at least high and c&^high below it.
	var over uint64
	i := 0
	for block := 8 * k; i+block <= len(b); i += block {
		words := b[i : i+block]
		for w, t := range tops {
			c := binary.LittleEndian.Uint64(words[8*w:])
			z := (t | high) - (c &^ high)
			over |= c&^t | ^(c ^ t | z)
		}
	}
	if over&high != 0 {
		return false
	}
	var acc int64
	for j := 0; i < len(b); i, j = i+width, j+1 {
		acc |= int64(top[j%k]) - int64(readCode(b[i:], width))
	}
	return acc >= 0
}

// AppendSections appends the table as a v3 snapshot stores its rows: the
// value section, then the label section.
func (r *Rows) AppendSections(b []byte) []byte {
	return append(append(b, r.vals...), r.labels...)
}

// ReadRows reads n rows over s laid out as AppendSections writes them at
// widths vw and lw, which must be s's, and validates every code (Validate).
// b must hold exactly the two sections. The table adopts b rather than
// copying it, so the caller hands b over: a decoder's own buffer, which
// nothing else reads or writes. Each section is capped at its length, so an
// Append reallocates rather than writing past it, into the label section
// or whatever follows b in its backing array.
func ReadRows(s *Schema, n uint64, vw, lw int, b []byte) (*Rows, error) {
	if wantV, wantL := Widths(s); vw != wantV || lw != wantL {
		return nil, fmt.Errorf("feature: code widths %d/%d, schema implies %d/%d", vw, lw, wantV, wantL)
	}
	k := s.NumFeatures()
	rowBytes := uint64(k*vw + lw)
	if n > uint64(len(b))/rowBytes || n*rowBytes != uint64(len(b)) {
		return nil, fmt.Errorf("feature: %d rows of %d bytes do not fill the %d bytes present", n, rowBytes, len(b))
	}
	split := int(n) * k * vw
	r := &Rows{k: k, vw: vw, lw: lw, vals: b[:split:split], labels: b[split:len(b):len(b)]}
	if err := r.Validate(s); err != nil {
		return nil, err
	}
	return r, nil
}

// checkFits panics unless li has one value per attribute and every code
// fits the table's widths.
func (r *Rows) checkFits(li Labeled) {
	if len(li.X) != r.k {
		panic(fmt.Sprintf("feature: row of %d values stored in a table of %d", len(li.X), r.k))
	}
	var or uint32 // fits a width exactly when every code does
	for _, v := range li.X {
		or |= uint32(v)
	}
	if !fits(or, r.vw) {
		panic(fmt.Sprintf("feature: row %v has a code that does not fit %d bytes", li.X, r.vw))
	}
	mustFit(uint32(li.Y), r.lw)
}

// fits reports whether code v, an int32 code read as uint32, fits width
// bytes. A negative code fits no width.
func fits(v uint32, width int) bool {
	return width == 4 && int32(v) >= 0 || width < 4 && v>>(8*width) == 0
}

// mustFit returns v, panicking when it does not fit width bytes.
func mustFit(v uint32, width int) uint32 {
	if !fits(v, width) {
		panic(fmt.Sprintf("feature: code %d does not fit %d bytes", int32(v), width))
	}
	return v
}

// appendCode appends v as width little-endian bytes.
func appendCode(b []byte, v uint32, width int) []byte {
	switch width {
	case 1:
		return append(b, byte(v))
	case 2:
		return binary.LittleEndian.AppendUint16(b, uint16(v))
	default:
		return binary.LittleEndian.AppendUint32(b, v)
	}
}

// putCodes writes the codes of x as width little-endian bytes each at the
// front of b.
func putCodes(b []byte, x Instance, width int) {
	switch width {
	case 1:
		b = b[:len(x)]
		for a, v := range x {
			b[a] = byte(v)
		}
	case 2:
		for a, v := range x {
			binary.LittleEndian.PutUint16(b[2*a:], uint16(v))
		}
	default:
		for a, v := range x {
			binary.LittleEndian.PutUint32(b[4*a:], uint32(v))
		}
	}
}

// putCode writes v as width little-endian bytes at the front of b.
func putCode(b []byte, v uint32, width int) {
	switch width {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		binary.LittleEndian.PutUint32(b, v)
	}
}

// readCode reads a width-byte little-endian code from the front of b.
func readCode(b []byte, width int) uint32 {
	switch width {
	case 1:
		return uint32(b[0])
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	default:
		return binary.LittleEndian.Uint32(b)
	}
}
