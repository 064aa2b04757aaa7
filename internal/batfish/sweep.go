package batfish

import (
	"slices"
	"sort"

	"crystalnet/internal/config"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
)

// Where a hop leaves a packet when no downstream device takes it.
const (
	hopDelivered int32 = -1 // local origination, or a host nobody owns
	hopDropped   int32 = -2 // no route, or a next hop nobody owns
)

// sweepBlock is how many rows' successors a column stores per block, the
// unit an Update copies.
const sweepBlock = 64

// maxHops bounds a walk: a packet still in flight after this many hops is
// counted undelivered, which is how a forwarding loop shows.
const maxHops = 64

// Sweep is the fabric-wide answer to Walker.Delivered, kept between
// convergence points so that a point pays for what changed since the last
// one rather than for the fabric. For each destination (a row) and each
// device id of the fabric index it holds the device's successor toward the
// destination — Walker.hop's answer as an id, or delivered/dropped — and
// whether a packet from the device is delivered.
//
// A Sweep is immutable: Update returns a successor that shares everything it
// did not rewrite, so the forks of one converged baseline can all start from
// the baseline's table, read it concurrently and never see each other's
// writes. Successors are stored by device column, in blocks of sweepBlock
// rows: a flapped link rewrites one device's successor toward nearly every
// destination and a few hundred other devices' toward one or two, so an
// Update copies that device's column and one block of each other where
// sharing rows would copy the whole table. It holds no pointer into
// forwarding state: per device it keeps the rib.Mark of the table its column
// read, as the traffic memo does (internal/traffic/memo.go).
//
// Verdicts follow a row's successors with Delivered's hop bound and loop
// rule, so they equal a Walker's for every chain, however long.
type Sweep struct {
	ix   *config.Index
	dsts []netpkt.IP
	// byIP lists row numbers in ascending destination order, for finding
	// the destinations a written prefix contains.
	byIP []int32
	// next is, per device id, the device's successor toward each row's
	// destination: row r's is next[id][r/sweepBlock][r%sweepBlock].
	next [][]*[sweepBlock]int32
	// lost is, per row, the bitset of device ids whose packets are not
	// delivered; nil when every device's are.
	lost  [][]uint64
	marks []rib.Mark // by device id: what each column read
}

// Update returns the table for the fabric ix describes now, toward dsts,
// where table gives each device's live forwarding table (nil for a device
// without one), together with the number of successors it resolved. s may
// be nil. The caller guarantees the forwarding state does not change while
// Update runs.
//
// The staleness rule is the traffic memo's, rib.FIB.Since. A different
// index (some configuration changed) or destination list means a full
// build. A device whose table cannot account for what changed since the
// column read it, or wrote more prefixes than there are destinations, gets
// its whole column resolved again; otherwise only the destinations inside a
// written prefix are. An unchanged table, sealed or not, costs nothing, so
// repeated sweeps at one convergence point cost nothing on a fresh run
// either. Verdicts are derived again only for rows whose successors moved.
func (s *Sweep) Update(ix *config.Index, dsts []netpkt.IP, table func(dev string) *rib.FIB) (*Sweep, int) {
	u := &Sweep{ix: ix, marks: make([]rib.Mark, ix.Len())}
	res := resolver{ix: ix, fibs: make([]*rib.FIB, ix.Len()), cfgs: make([]*config.DeviceConfig, ix.Len())}
	for id := range res.fibs {
		name := ix.Name(id)
		res.cfgs[id], res.fibs[id] = ix.Config(name), table(name)
		u.marks[id] = res.fibs[id].Mark()
	}
	if s == nil || s.ix != ix || !slices.Equal(s.dsts, dsts) {
		return u, u.build(dsts, res)
	}

	u.dsts, u.byIP = s.dsts, s.byIP
	u.next, u.lost = slices.Clone(s.next), slices.Clone(s.lost)
	// moved marks the rows whose successors changed; stamp the column that
	// last resolved a row, so that overlapping written prefixes resolve it
	// once.
	moved := make([]bool, len(u.dsts))
	stamp := make([]int32, len(u.dsts))
	resolved := 0
	var writes []netpkt.Prefix
	for id, was := range s.marks {
		var ok bool
		writes, ok = res.fibs[id].Since(was, writes[:0])
		if ok && len(writes) == 0 {
			continue
		}
		owned := false // whether u.next[id] is this update's copy
		set := func(row int) {
			if stamp[row] == int32(id)+1 {
				return
			}
			stamp[row] = int32(id) + 1
			resolved++
			v := res.successor(id, u.dsts[row])
			b, i := row/sweepBlock, row%sweepBlock
			if u.next[id][b][i] == v {
				return
			}
			if !owned {
				u.next[id], owned = slices.Clone(u.next[id]), true
			}
			if u.next[id][b] == s.next[id][b] {
				blk := *u.next[id][b]
				u.next[id][b] = &blk
			}
			u.next[id][b][i], moved[row] = v, true
		}
		if !ok || len(writes) > len(u.dsts) {
			for row := range u.dsts {
				set(row)
			}
			continue
		}
		for _, p := range writes {
			lo := p.Addr & p.MaskIP()
			hi := lo | ^p.MaskIP()
			k := sort.Search(len(u.byIP), func(k int) bool { return u.dsts[u.byIP[k]] >= lo })
			for ; k < len(u.byIP) && u.dsts[u.byIP[k]] <= hi; k++ {
				set(int(u.byIP[k]))
			}
		}
	}
	var v verdicts
	for row, m := range moved {
		if m {
			u.lost[row] = v.lost(u.next, row)
		}
	}
	return u, resolved
}

// build resolves every successor from scratch and returns how many that
// took.
func (u *Sweep) build(dsts []netpkt.IP, res resolver) int {
	n, rows := u.ix.Len(), len(dsts)
	u.dsts = slices.Clone(dsts)
	u.byIP = make([]int32, rows)
	for row := range u.byIP {
		u.byIP[row] = int32(row)
	}
	sort.Slice(u.byIP, func(i, j int) bool { return u.dsts[u.byIP[i]] < u.dsts[u.byIP[j]] })
	// One backing array for every block and one for every column's block
	// list: a later Update copies what it writes, so they may be shared.
	nb := (rows + sweepBlock - 1) / sweepBlock
	blocks := make([][sweepBlock]int32, n*nb)
	lists := make([]*[sweepBlock]int32, n*nb)
	u.next = make([][]*[sweepBlock]int32, n)
	for id := range u.next {
		col := lists[id*nb : (id+1)*nb : (id+1)*nb]
		for b := range col {
			col[b] = &blocks[id*nb+b]
		}
		for row, dst := range u.dsts {
			col[row/sweepBlock][row%sweepBlock] = res.successor(id, dst)
		}
		u.next[id] = col
	}
	u.lost = make([][]uint64, rows)
	var v verdicts
	for row := range u.lost {
		u.lost[row] = v.lost(u.next, row)
	}
	return n * rows
}

// Delivered reports whether a packet from device id dev reaches the
// destination of row dst — Walker.Delivered's verdict, read off the table.
func (s *Sweep) Delivered(dev, dst int) bool {
	lost := s.lost[dst]
	return lost == nil || lost[dev>>6]&(1<<(uint(dev)&63)) == 0
}

// resolver is Walker.hop over device ids, against tables and configurations
// looked up once per Update.
type resolver struct {
	ix   *config.Index
	fibs []*rib.FIB
	cfgs []*config.DeviceConfig
}

// successor is device id's next hop toward dst: a device id, hopDelivered or
// hopDropped.
func (r resolver) successor(id int, dst netpkt.IP) int32 {
	if originates(r.cfgs[id], dst) {
		return hopDelivered
	}
	f := r.fibs[id]
	if f == nil {
		return hopDropped
	}
	best, found := f.Lookup(dst)
	return forward(r.ix, best, found, dst)
}

// verdicts derives a row's verdicts from the successors; its buffers are
// reused from row to row.
type verdicts struct {
	// depth is, per device id, 0 while unknown, onPath while on the chain
	// being followed, lostDepth when undelivered, and otherwise the number of
	// hops a packet from the device takes to delivery.
	depth []int16
	path  []int32
}

const (
	onPath    int16 = -1
	lostDepth int16 = -2
)

// lost returns the bitset of devices whose packets toward row's
// destination are not delivered within maxHops hops of next, nil when there
// are none. Each device is followed once: a chain stops at the first device
// whose depth is known.
func (v *verdicts) lost(next [][]*[sweepBlock]int32, row int) []uint64 {
	if len(v.depth) != len(next) {
		v.depth = make([]int16, len(next))
	} else {
		clear(v.depth)
	}
	var lost []uint64
	for d := range next {
		if v.depth[d] == 0 {
			v.follow(next, row, int32(d))
		}
		if v.depth[d] == lostDepth {
			if lost == nil {
				lost = make([]uint64, (len(next)+63)/64)
			}
			lost[d>>6] |= 1 << (uint(d) & 63)
		}
	}
	return lost
}

// follow settles the depth of every device on the chain from d up to the
// first device whose depth is known, a sentinel or a loop.
func (v *verdicts) follow(next [][]*[sweepBlock]int32, row int, d int32) {
	v.path = v.path[:0]
	// tail is the depth of what the chain runs into: 0 when its last device
	// delivers, lostDepth when it drops or loops.
	var tail int16
	for cur := d; ; {
		if t := v.depth[cur]; t != 0 {
			tail = t
			if t == onPath {
				tail = lostDepth
			}
			break
		}
		v.depth[cur] = onPath
		v.path = append(v.path, cur)
		nx := next[cur][row/sweepBlock][row%sweepBlock]
		if nx == hopDelivered {
			tail = 0
			break
		}
		if nx == hopDropped {
			tail = lostDepth
			break
		}
		cur = nx
	}
	for i := len(v.path) - 1; i >= 0; i-- {
		if tail != lostDepth && tail < maxHops {
			tail++
		} else {
			tail = lostDepth
		}
		v.depth[v.path[i]] = tail
	}
}
