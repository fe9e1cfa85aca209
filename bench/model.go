package main

// model is the client's record of what the store must contain: one version
// word per key index. Preloaded keys occupy [0, records); each connection's
// fresh keys (inserted while running) are interleaved above base so that the
// owner of any index is idx mod nconn. A word is written only by its owning
// connection's goroutine, so the connections share the slice without locks;
// it is read across connections only between phases, when nothing is in
// flight.
type model struct {
	records int
	nconn   int
	base    int // first fresh index: records rounded up to a multiple of nconn
	ver     []uint32

	// Per connection: how many fresh keys it has inserted, and how many of
	// the oldest it has deleted again (deletes are FIFO, so the live fresh
	// keys of connection c are exactly ordinals [deleted[c], inserted[c])).
	inserted []uint32
	deleted  []uint32
	freshCap uint32
}

// deletedBit marks a key whose last operation was a DEL; the low bits keep
// the version it last carried.
const deletedBit = 1 << 31

func newModel(records, nconn int, freshCap uint32) *model {
	base := (records + nconn - 1) / nconn * nconn
	return &model{
		records:  records,
		nconn:    nconn,
		base:     base,
		ver:      make([]uint32, base+nconn*int(freshCap)),
		inserted: make([]uint32, nconn),
		deleted:  make([]uint32, nconn),
		freshCap: freshCap,
	}
}

// freshIndex is the key index of connection conn's ordinal-th fresh key.
func (m *model) freshIndex(conn int, ordinal uint32) uint32 {
	return uint32(m.base + int(ordinal)*m.nconn + conn)
}

// liveBytes is the user data the store holds: key plus value length of every
// live key. Called between phases.
func (m *model) liveBytes(vs *valueSpace) (bytes int64) {
	for idx, v := range m.ver {
		if v != 0 && v&deletedBit == 0 {
			bytes += int64(keyLen + vs.length(uint32(idx), v))
		}
	}
	return bytes
}
