// Package dram is an event-driven DDR4 rank timing model — the
// Ramulator substitute of this reproduction (see DESIGN.md). It tracks
// per-bank row-buffer state and the command-timing constraints of
// Table 3 (tRCD, tCL, tRP, tRC, tRRD_S/L, tFAW, tCCD_S/L, tBL) under an
// open-page policy with in-order issue per rank.
//
// The model captures what the LPN study needs: sequential (sorted)
// access streams ride the row buffer at tCCD pace — the full
// 19.2 GB/s of a DDR4-2400 x64 rank — while random streams pay the
// activate/precharge penalty and collapse to a small fraction of peak,
// which is precisely the §3.2 bandwidth-bound diagnosis.
package dram

// Timing holds DDR4 command timing in memory-clock cycles.
type Timing struct {
	TRCD  int // ACT -> READ
	TCL   int // READ -> data
	TRP   int // PRE -> ACT
	TRC   int // ACT -> ACT, same bank
	TRRDS int // ACT -> ACT, different bank group
	TRRDL int // ACT -> ACT, same bank group
	TFAW  int // four-ACT window per rank
	TCCDS int // READ -> READ, different bank group
	TCCDL int // READ -> READ, same bank group
	TBL   int // burst length in cycles (BL8 at DDR = 4 clock cycles)
}

// DDR4_2400 is the Table 3 configuration.
var DDR4_2400 = Timing{
	TRCD: 16, TCL: 16, TRP: 16, TRC: 55,
	TRRDS: 4, TRRDL: 6, TFAW: 26,
	TCCDS: 4, TCCDL: 6, TBL: 4,
}

// Geometry describes one rank.
type Geometry struct {
	BankGroups  int // DDR4: 4
	BanksPerGrp int // DDR4: 4
	RowBytes    int // row-buffer size per rank (8 KB for x8 DIMM)
	LineBytes   int // transfer granularity (one BL8 burst = 64 B)
	FreqMHz     int // memory clock (1200 for DDR4-2400)
}

// DefaultGeometry matches the Table 3 DIMM.
var DefaultGeometry = Geometry{
	BankGroups:  4,
	BanksPerGrp: 4,
	RowBytes:    8192,
	LineBytes:   64,
	FreqMHz:     1200,
}

type bank struct {
	openRow   int64 // -1 = closed
	readyAt   int64 // earliest next command to this bank
	lastActAt int64
}

// Rank simulates one DRAM rank.
type Rank struct {
	t    Timing
	g    Geometry
	bank []bank

	lastActAt   int64 // most recent ACT on the rank (for tRRD)
	lastActGrp  int
	actWindow   [4]int64 // timestamps of the last four ACTs (tFAW)
	actWindowAt int

	lastReadAt  int64 // most recent READ issue (for tCCD)
	lastReadGrp int

	maxDone int64 // latest data-burst completion

	reads, rowHits, acts uint64
}

// NewRank builds a rank with the given timing and geometry.
func NewRank(t Timing, g Geometry) *Rank {
	n := g.BankGroups * g.BanksPerGrp
	r := &Rank{t: t, g: g, bank: make([]bank, n)}
	for i := range r.bank {
		r.bank[i].openRow = -1
		r.bank[i].lastActAt = -int64(t.TRC)
	}
	r.lastActAt = -int64(t.TFAW)
	for i := range r.actWindow {
		r.actWindow[i] = -int64(t.TFAW)
	}
	r.lastReadAt = -int64(t.TCCDL)
	return r
}

// decode maps a byte address to (bankIdx, bankGroup, row) with the
// standard bank-group-interleaved mapping: consecutive cache lines
// rotate across the four bank groups so sequential streams alternate
// groups and dodge the long tCCD_L, reaching the bus peak — exactly
// how DDR4 controllers lay out physical addresses.
func (r *Rank) decode(addr uint64) (bankIdx, grp int, row int64) {
	lineIdx := addr / uint64(r.g.LineBytes)
	grp = int(lineIdx % uint64(r.g.BankGroups))
	rest := lineIdx / uint64(r.g.BankGroups)
	linesPerRow := uint64(r.g.RowBytes / r.g.LineBytes)
	rowID := rest / linesPerRow
	bankInGrp := int(rowID % uint64(r.g.BanksPerGrp))
	row = int64(rowID / uint64(r.g.BanksPerGrp))
	bankIdx = grp*r.g.BanksPerGrp + bankInGrp
	return
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Read issues one line read at the given byte address and returns the
// cycle at which its data burst completes. Requests are assumed queued
// deeply (FR-FCFS style): a row miss's activate overlaps with reads to
// other banks, so the shared constraints are the data bus (tCCD), the
// activate spacing (tRRD, tFAW) and per-bank state — not a serialized
// ACT→RCD→READ chain across independent banks.
func (r *Rank) Read(addr uint64) int64 {
	bi, grp, row := r.decode(addr)
	b := &r.bank[bi]
	t := &r.t
	issue := b.readyAt

	if b.openRow != row {
		// Row miss: PRE (if open) then ACT, honoring tRC/tRRD/tFAW.
		actAt := issue
		if b.openRow >= 0 {
			actAt = issue + int64(t.TRP)
		}
		actAt = max64(actAt, b.lastActAt+int64(t.TRC))
		trrd := int64(t.TRRDS)
		if grp == r.lastActGrp {
			trrd = int64(t.TRRDL)
		}
		actAt = max64(actAt, r.lastActAt+trrd)
		actAt = max64(actAt, r.actWindow[r.actWindowAt]+int64(t.TFAW))

		b.openRow = row
		b.lastActAt = actAt
		r.lastActAt = actAt
		r.lastActGrp = grp
		r.actWindow[r.actWindowAt] = actAt
		r.actWindowAt = (r.actWindowAt + 1) % len(r.actWindow)
		r.acts++

		issue = actAt + int64(t.TRCD)
	} else {
		r.rowHits++
	}

	// READ command: honor tCCD on the shared data path.
	tccd := int64(t.TCCDS)
	if grp == r.lastReadGrp {
		tccd = int64(t.TCCDL)
	}
	issue = max64(issue, r.lastReadAt+tccd)
	r.lastReadAt = issue
	r.lastReadGrp = grp
	b.readyAt = issue + int64(t.TCCDL)
	r.reads++
	done := issue + int64(t.TCL) + int64(t.TBL)
	if done > r.maxDone {
		r.maxDone = done
	}
	return done
}

// Cycles returns the latest data-burst completion so far.
func (r *Rank) Cycles() int64 { return r.maxDone }

// RowHitRate is the fraction of reads that hit an open row.
func (r *Rank) RowHitRate() float64 {
	if r.reads == 0 {
		return 0
	}
	return float64(r.rowHits) / float64(r.reads)
}
