package dataset

import (
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
)

// blockKey identifies one IMSI allocation block: a (home operator,
// MSIN base) pair whose devices are numbered sequentially in device
// order.
type blockKey struct {
	home mccmnc.PLMN
	base uint64
}

// nextIMSI hands out the next IMSI of block (home, base) from the
// allocator off, advancing it in place. Numbering a population in
// device order over one allocator is the serial allocation every
// generator's identities are defined by.
func nextIMSI(off map[blockKey]uint64, home mccmnc.PLMN, base uint64) identity.IMSI {
	k := blockKey{home: home, base: base}
	n := off[k]
	off[k] = n + 1
	return identity.IMSI{PLMN: home, MSIN: base + n}
}
