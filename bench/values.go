package main

// Keys and self-checking values. A value is a pure function of (seed, key
// index, version): six base-36 digits of version followed by a slice of a
// seeded pattern table whose offset — and, for variable-length workloads,
// whose length — is hashed from (index, version). A checker that knows which
// key it asked for can therefore verify every byte of any reply without
// knowing who wrote it or when: it parses the version, regenerates the
// value, and compares. The alphabet is [a-z0-9] so the text protocol (which
// splits on spaces) can carry the same values as the binary one.

const (
	keyLen     = 16 // "user" + 12 decimal digits
	verDigits  = 6  // base 36: versions below 36^6 ≈ 2.1e9
	loadedLen  = 100
	minVarLen  = 8
	maxVarLen  = 256
	patternLen = 1 << 16

	alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
)

// appendKey appends "user%012d" of idx without fmt.
func appendKey(dst []byte, idx uint32) []byte {
	var d [12]byte
	for i := len(d) - 1; i >= 0; i-- {
		d[i] = byte('0' + idx%10)
		idx /= 10
	}
	dst = append(dst, "user"...)
	return append(dst, d[:]...)
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-mixed 64-bit hash used for every seeded choice the benchmark makes
// outside math/rand.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// valueSpace generates and checks the values of one run.
type valueSpace struct {
	salt     uint64
	table    []byte // patternLen + maxVarLen alphabet bytes
	variable bool   // lengths are redrawn per version in [minVarLen, maxVarLen]
}

func newValueSpace(seed int64, variable bool) *valueSpace {
	vs := &valueSpace{salt: splitmix64(uint64(seed)), variable: variable}
	vs.table = make([]byte, patternLen+maxVarLen)
	x := vs.salt
	for i := range vs.table {
		x = splitmix64(x)
		vs.table[i] = alphabet[x%uint64(len(alphabet))]
	}
	return vs
}

func (vs *valueSpace) hash(idx, ver uint32) uint64 {
	return splitmix64(vs.salt ^ (uint64(idx)<<32 | uint64(ver)))
}

// length is the byte length of (idx, ver)'s value. Version 1 (the preload,
// and a fresh key's first write) is always loadedLen; later versions keep it
// in the same-size workloads and redraw it in the variable ones, so an
// update changes the record's footprint.
func (vs *valueSpace) length(idx, ver uint32) int {
	if !vs.variable || ver <= 1 {
		return loadedLen
	}
	return minVarLen + int((vs.hash(idx, ver)>>40)%(maxVarLen-minVarLen+1))
}

// append appends the value of (idx, ver).
func (vs *valueSpace) append(dst []byte, idx, ver uint32) []byte {
	var d [verDigits]byte
	v := ver
	for i := verDigits - 1; i >= 0; i-- {
		d[i] = alphabet[v%36]
		v /= 36
	}
	dst = append(dst, d[:]...)
	off := int(vs.hash(idx, ver) % patternLen)
	return append(dst, vs.table[off:off+vs.length(idx, ver)-verDigits]...)
}

// check verifies that val is exactly the value some version of key idx
// would carry and returns that version.
func (vs *valueSpace) check(idx uint32, val []byte) (ver uint32, ok bool) {
	if len(val) < minVarLen {
		return 0, false
	}
	var v uint64
	for _, c := range val[:verDigits] {
		switch {
		case c >= 'a' && c <= 'z':
			v = v*36 + uint64(c-'a')
		case c >= '0' && c <= '9':
			v = v*36 + uint64(c-'0') + 26
		default:
			return 0, false
		}
	}
	ver = uint32(v)
	if len(val) != vs.length(idx, ver) {
		return 0, false
	}
	off := int(vs.hash(idx, ver) % patternLen)
	if string(val[verDigits:]) != string(vs.table[off:off+len(val)-verDigits]) {
		return 0, false
	}
	return ver, true
}
