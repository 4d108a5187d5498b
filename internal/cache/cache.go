// Package cache models the per-processor data cache of the simulated
// architecture: sectored, set-associative, write-back with respect to the
// local attraction memory. The paper's configuration is a 256 KB 8-way
// cache with 2 KB sectors and 64-byte lines; a sector holds one tag and a
// valid/dirty/writable bit per line.
//
// The cache stores a 64-bit value stamp per line (the simulator's model of
// data contents) so end-to-end value correctness can be checked against
// the machine's oracle.
package cache

import (
	"fmt"
	"math/bits"

	"coma/internal/config"
)

// Writeback describes a dirty line evicted or flushed to the local AM.
type Writeback struct {
	Addr  uint64
	Value uint64
}

// Stats counts cache activity, split by read/write as in the paper's
// Fig. 5 discussion.
type Stats struct {
	ReadHits    int64
	ReadMisses  int64
	WriteHits   int64
	WriteMisses int64
	// UpgradeMisses are writes that hit a valid but non-writable line
	// (counted inside WriteMisses as well: they cost a coherence
	// transaction even though the data was present).
	UpgradeMisses int64
	Evictions     int64
	Writebacks    int64
	Invalidations int64
}

// Accesses returns the total number of processor accesses.
func (s Stats) Accesses() int64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// MissRate returns the overall miss rate in [0,1].
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.ReadMisses+s.WriteMisses) / float64(a)
}

type line struct {
	valid    bool
	dirty    bool
	writable bool
	value    uint64
}

// noSector is the tag of a way that holds no sector. Simulated
// addresses stay far below 2^63, so no sector number equals it.
const noSector = ^uint64(0)

// Cache is one processor's data cache. Way w of set s is sector
// s*ways+w; its tag, LRU stamp and lines sit at that index of tags,
// lastUse and (scaled by the lines per sector) lines. A lookup scans
// the set's row of tags, as the hardware compares one set's tags.
type Cache struct {
	arch    config.Arch
	tags    []uint64 // global sector number per way, noSector when invalid
	lastUse []int64
	lines   []line
	ways    int
	// Validate makes the line size, the lines per sector and the set
	// count powers of two, so an address splits with shifts and masks.
	sectorLines int
	sectorShift uint
	lineShift   uint
	lineMask    uint64
	setMask     uint64
	// wbs is the reused result of fill, valid until the next fill.
	wbs   []Writeback
	stats Stats
}

// New builds an empty cache for the architecture, which must pass
// Validate.
func New(arch config.Arch) *Cache {
	sectorSize := arch.CacheLineSize * arch.CacheSectors
	numSets := arch.CacheSets()
	if numSets < 1 {
		panic(fmt.Sprintf("cache: geometry yields %d sets", numSets))
	}
	n := numSets * arch.CacheWays
	c := &Cache{
		arch:        arch,
		tags:        make([]uint64, n),
		lastUse:     make([]int64, n),
		lines:       make([]line, n*arch.CacheSectors),
		ways:        arch.CacheWays,
		sectorLines: arch.CacheSectors,
		sectorShift: log2(sectorSize),
		lineShift:   log2(arch.CacheLineSize),
		lineMask:    uint64(arch.CacheSectors - 1),
		setMask:     uint64(numSets - 1),
	}
	for i := range c.tags {
		c.tags[i] = noSector
	}
	return c
}

func log2(v int) uint { return uint(bits.TrailingZeros(uint(v))) }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// locate splits addr into the index of way 0 of its set, its sector
// tag and its line index within the sector.
func (c *Cache) locate(addr uint64) (row int, tag uint64, lineIdx int) {
	tag = addr >> c.sectorShift
	return int(tag&c.setMask) * c.ways, tag, int(addr >> c.lineShift & c.lineMask)
}

// findSector returns the sector holding tag in the set starting at row,
// or -1.
func (c *Cache) findSector(row int, tag uint64) int {
	for w, t := range c.tags[row : row+c.ways] {
		if t == tag {
			return row + w
		}
	}
	return -1
}

// sectorLinesOf returns sector i's lines.
func (c *Cache) sectorLinesOf(i int) []line {
	return c.lines[i*c.sectorLines : (i+1)*c.sectorLines]
}

// lineAt returns the valid line covering addr, or nil.
func (c *Cache) lineAt(addr uint64) *line {
	row, tag, li := c.locate(addr)
	i := c.findSector(row, tag)
	if i < 0 {
		return nil
	}
	if l := &c.lines[i*c.sectorLines+li]; l.valid {
		return l
	}
	return nil
}

// Access performs one processor access. For a read it returns (value,
// true) on a hit. For a write it returns true only if the line is present
// and writable; the write is applied. On any miss the caller runs the
// below protocol and then calls Fill (and Write again for writes).
func (c *Cache) Access(addr uint64, write bool, value uint64, now int64) (uint64, bool) {
	row, tag, li := c.locate(addr)
	if i := c.findSector(row, tag); i >= 0 {
		if l := &c.lines[i*c.sectorLines+li]; l.valid {
			if !write {
				c.lastUse[i] = now
				c.stats.ReadHits++
				return l.value, true
			}
			if l.writable {
				c.lastUse[i] = now
				l.value = value
				l.dirty = true
				c.stats.WriteHits++
				return value, true
			}
			c.stats.UpgradeMisses++
		}
	}
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	return 0, false
}

// Contains reports whether the line covering addr is valid (without
// touching LRU state or statistics).
func (c *Cache) Contains(addr uint64) bool { return c.lineAt(addr) != nil }

// Writable reports whether the line covering addr is valid and writable.
func (c *Cache) Writable(addr uint64) bool {
	l := c.lineAt(addr)
	return l != nil && l.writable
}

// Fill installs the line covering addr with the given value and write
// permission, allocating (and possibly evicting) a sector. It returns the
// dirty lines of an evicted sector, which the caller must write back to
// the local AM; the slice is valid until the next fill.
func (c *Cache) Fill(addr uint64, writable bool, value uint64, now int64) []Writeback {
	return c.fill(addr, writable, false, value, now)
}

// FillDirty installs the line as written data (valid, writable, dirty) —
// the write-miss completion path.
func (c *Cache) FillDirty(addr uint64, value uint64, now int64) []Writeback {
	return c.fill(addr, true, true, value, now)
}

func (c *Cache) fill(addr uint64, writable, dirty bool, value uint64, now int64) []Writeback {
	row, tag, li := c.locate(addr)
	i := c.findSector(row, tag)
	var evicted []Writeback
	if i < 0 {
		i, evicted = c.allocate(row, tag)
	}
	c.lastUse[i] = now
	c.lines[i*c.sectorLines+li] = line{valid: true, writable: writable, dirty: dirty, value: value}
	return evicted
}

// SetItemValue refreshes the value of every valid cache line covering the
// item (the simulator models contents per item, so a write through one
// line must be visible through the other).
func (c *Cache) SetItemValue(itemAddr uint64, value uint64) {
	c.forEachLineOfItem(itemAddr, func(l *line) { l.value = value })
}

// DowngradeAll removes write permission from every line (recovery-point
// quiesce: all Exclusive AM copies are about to become Pre-Commit).
// Dirty bits are untouched; flush first.
func (c *Cache) DowngradeAll() {
	for i := range c.lines {
		c.lines[i].writable = false
	}
}

// allocate claims a way of the set starting at row for tag: the first
// invalid way, else the least recently used one, whose dirty lines it
// returns for write-back.
func (c *Cache) allocate(row int, tag uint64) (int, []Writeback) {
	victim := row
	for i := row; i < row+c.ways; i++ {
		if c.tags[i] == noSector {
			victim = i
			break
		}
		if c.lastUse[i] < c.lastUse[victim] {
			victim = i
		}
	}
	var wbs []Writeback
	if old := c.tags[victim]; old != noSector {
		c.stats.Evictions++
		wbs = c.wbs[:0]
		base := old << c.sectorShift
		lines := c.sectorLinesOf(victim)
		for li := range lines {
			if lines[li].valid && lines[li].dirty {
				c.stats.Writebacks++
				wbs = append(wbs, Writeback{
					Addr:  base + uint64(li)<<c.lineShift,
					Value: lines[li].value,
				})
			}
			lines[li] = line{}
		}
		c.wbs = wbs
	}
	c.tags[victim] = tag
	return victim, wbs
}

// forEachLineOfItem visits the valid cache lines covering the item
// starting at itemAddr (LinesPerItem consecutive lines).
func (c *Cache) forEachLineOfItem(itemAddr uint64, fn func(l *line)) {
	for l, n := 0, c.arch.LinesPerItem(); l < n; l++ {
		if ln := c.lineAt(itemAddr + uint64(l)<<c.lineShift); ln != nil {
			fn(ln)
		}
	}
}

// InvalidateItem drops all lines covering the item starting at itemAddr
// (a remote node took exclusive ownership, or recovery invalidated the
// local AM copy). Dirty contents are discarded: the coherence protocol
// guarantees a dirty line only exists while the local AM copy is
// Exclusive, and exclusivity is only revoked after the data has been
// transferred.
func (c *Cache) InvalidateItem(itemAddr uint64) int {
	n := 0
	c.forEachLineOfItem(itemAddr, func(l *line) {
		*l = line{}
		n++
	})
	c.stats.Invalidations += int64(n)
	return n
}

// DowngradeItem clears write permission (and dirtiness) on the lines
// covering the item, keeping them readable. Used when the local AM copy
// leaves Exclusive (remote read, or checkpoint flush): the data stays in
// the cache and "can still be read by processors" (paper §4.2.3).
func (c *Cache) DowngradeItem(itemAddr uint64) {
	c.forEachLineOfItem(itemAddr, func(l *line) {
		l.writable = false
		l.dirty = false
	})
}

// ItemDirtyValue returns the most recent dirty value cached for the item,
// if any line covering it is dirty. The AM consults this before serving a
// remote request so the reply carries current data.
func (c *Cache) ItemDirtyValue(itemAddr uint64) (uint64, bool) {
	var v uint64
	found := false
	c.forEachLineOfItem(itemAddr, func(l *line) {
		if l.dirty {
			v = l.value
			found = true
		}
	})
	return v, found
}

// FlushDirty writes every dirty line back through fn (addr, value),
// clearing dirty bits but keeping lines valid and readable. Write
// permission is also dropped: after a recovery point the AM copy is no
// longer Exclusive. It returns the number of lines flushed.
func (c *Cache) FlushDirty(fn func(addr, value uint64)) int {
	n := 0
	for i, tag := range c.tags {
		if tag == noSector {
			continue
		}
		base := tag << c.sectorShift
		lines := c.sectorLinesOf(i)
		for li := range lines {
			if l := &lines[li]; l.valid && l.dirty {
				fn(base+uint64(li)<<c.lineShift, l.value)
				l.dirty = false
				l.writable = false
				n++
			}
		}
	}
	return n
}

// DirtyLines returns the number of dirty lines currently held.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			n++
		}
	}
	return n
}

// InvalidateAll empties the cache (recovery rollback: Shared copies
// cannot be told apart from stale data, so everything goes).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		if c.lines[i].valid {
			c.stats.Invalidations++
		}
		c.lines[i] = line{}
	}
	for i := range c.tags {
		c.tags[i] = noSector
		c.lastUse[i] = 0
	}
}
