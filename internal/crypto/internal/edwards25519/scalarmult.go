// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import "sync"

// basepointNafTables returns the nafLookupTable8s for the basepoint B and
// for [2¹²⁸]B. They are precomputed the first time they're used.
func basepointNafTables() (b, b2h *nafLookupTable8) {
	basepointNafTablePrecomp.initOnce.Do(func() {
		basepointNafTablePrecomp.table.FromP3(NewGeneratorPoint())
		basepointNafTablePrecomp.table2h.FromP3(new(Point).timesTwoToHalf(NewGeneratorPoint()))
	})
	return &basepointNafTablePrecomp.table, &basepointNafTablePrecomp.table2h
}

var basepointNafTablePrecomp struct {
	table, table2h nafLookupTable8
	initOnce       sync.Once
}
