// Package p4 implements a behavioural-model ("BMv2") style programmable
// match-action pipeline — the soft ASIC the paper integrates for the
// open-source switch OS (§6.2: "we integrate it with the open source P4
// behavior model, BMv2, which acts as the ASIC emulator and forwards
// packets") and the programmable-data-plane debugging target of §9.
//
// A Program is a sequence of tables; each table matches packet header
// fields (exact, LPM or ternary) and executes an action: forward out a
// port, drop, rewrite a field, decrement TTL, or punt to the CPU (how
// control-plane packets like ARP and BGP reach the switch OS — the trap
// path whose breakage is one of the §7 Case-2 bugs). Execution produces a
// per-table trace, which is what makes emulated pipelines debuggable.
//
// DESIGN.md §2 (substrates) places the pipeline in the system inventory.
package p4

import (
	"slices"
	"sort"

	"crystalnet/internal/netpkt"
)

// Field names a packet header field the pipeline can match or rewrite.
type Field uint8

// Matchable/rewritable fields.
const (
	FieldDstIP Field = iota
	FieldSrcIP
	FieldProto
	FieldDstPort
	FieldSrcPort
	FieldTTL
	FieldInPort
	numFields
)

var fieldNames = [...]string{"dst_ip", "src_ip", "proto", "dst_port", "src_port", "ttl", "in_port"}

// String returns the P4-style field name.
func (f Field) String() string {
	if int(f) < len(fieldNames) {
		return fieldNames[f]
	}
	return "field?"
}

// Packet is the parsed header vector flowing through the pipeline.
type Packet struct {
	fields [numFields]uint32
}

// NewPacket builds a header vector.
func NewPacket(src, dst netpkt.IP, proto uint8, srcPort, dstPort uint16, ttl uint8, inPort uint32) *Packet {
	p := &Packet{}
	p.fields[FieldSrcIP] = uint32(src)
	p.fields[FieldDstIP] = uint32(dst)
	p.fields[FieldProto] = uint32(proto)
	p.fields[FieldSrcPort] = uint32(srcPort)
	p.fields[FieldDstPort] = uint32(dstPort)
	p.fields[FieldTTL] = uint32(ttl)
	p.fields[FieldInPort] = inPort
	return p
}

// Get reads a field.
func (p *Packet) Get(f Field) uint32 { return p.fields[f] }

// Set writes a field.
func (p *Packet) Set(f Field, v uint32) { p.fields[f] = v }

// MatchKind distinguishes table match types.
type MatchKind uint8

// Match kinds.
const (
	MatchExact MatchKind = iota
	MatchLPM
	MatchTernary
)

// Key is one match criterion of a table entry.
type Key struct {
	Field Field
	Kind  MatchKind
	Value uint32
	// Mask is the prefix mask for LPM (host-order, contiguous) or the
	// arbitrary bit mask for ternary. Ignored for exact matches.
	Mask uint32
}

func (k Key) matches(p *Packet) bool {
	v := p.Get(k.Field)
	switch k.Kind {
	case MatchExact:
		return v == k.Value
	case MatchLPM, MatchTernary:
		return v&k.Mask == k.Value&k.Mask
	}
	return false
}

// specificity orders entries: more masked bits win (LPM semantics
// generalized to the whole key set).
func (k Key) specificity() int {
	switch k.Kind {
	case MatchExact:
		return 32
	default:
		n := 0
		for m := k.Mask; m != 0; m &= m - 1 {
			n++
		}
		return n
	}
}

// ActionKind is what an entry does on match.
type ActionKind uint8

// Actions.
const (
	ActForward  ActionKind = iota // send out Port
	ActDrop                       // discard
	ActToCPU                      // punt to the switch OS (the trap path)
	ActSetField                   // rewrite Field = Value, continue pipeline
	ActDecTTL                     // decrement TTL, drop at zero, continue
	ActNoOp                       // continue to next table
)

var actionNames = [...]string{"forward", "drop", "to_cpu", "set_field", "dec_ttl", "no_op"}

// String returns the action name.
func (a ActionKind) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "action?"
}

// Action is an entry's action with its parameters.
type Action struct {
	Kind  ActionKind
	Port  uint32
	Field Field
	Value uint32
}

// Entry is one table row.
type Entry struct {
	Keys     []Key
	Action   Action
	Priority int // explicit tiebreak; higher wins before specificity
}

func (e *Entry) matches(p *Packet) bool {
	for _, k := range e.Keys {
		if !k.matches(p) {
			return false
		}
	}
	return true
}

func (e *Entry) specificity() int {
	s := 0
	for _, k := range e.Keys {
		s += k.specificity()
	}
	return s
}

// Table is one match-action stage.
type Table struct {
	Name    string
	entries []*Entry
	// DefaultAction runs when nothing matches (P4's default_action).
	DefaultAction Action
	// Hits/Misses are the table counters P4 exposes.
	Hits, Misses uint64
}

// AddEntry installs a row. The rows go to a new array, never the one the
// table had, so clones share row arrays (Clone).
func (t *Table) AddEntry(e *Entry) {
	t.entries = append(slices.Clip(t.entries), e)
	// Longest-prefix/priority order: higher priority first, then more
	// specific, preserving insertion order among equals.
	sort.SliceStable(t.entries, func(i, j int) bool {
		if t.entries[i].Priority != t.entries[j].Priority {
			return t.entries[i].Priority > t.entries[j].Priority
		}
		return t.entries[i].specificity() > t.entries[j].specificity()
	})
}

// Program is an ordered pipeline of tables.
type Program struct {
	Name   string
	Tables []*Table
}

// AddTable appends a stage and returns it.
func (p *Program) AddTable(name string, def Action) *Table {
	t := &Table{Name: name, DefaultAction: def}
	p.Tables = append(p.Tables, t)
	return t
}

// Verdict is the pipeline outcome.
type Verdict uint8

// Pipeline outcomes. Continued means the packet fell off the end of the
// program without a terminal action — used when a program is only a
// front-end stage (e.g. the trap program ahead of a fixed-function
// forwarder); a full switch program ends with a defaulted LPM stage and
// never continues.
const (
	Forwarded Verdict = iota
	Dropped
	PuntedToCPU
	Continued
)

var verdictNames = [...]string{"forwarded", "dropped", "to-cpu", "continued"}

// String returns the verdict name.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return "verdict?"
}

// TraceStep records one table's decision for a packet — the §9 debugging
// surface.
type TraceStep struct {
	Table  string
	Hit    bool
	Action Action
}

// Result is the outcome of running a packet through the pipeline.
type Result struct {
	Verdict Verdict
	Port    uint32
	Trace   []TraceStep
}

// Run executes the pipeline on the packet, mutating its header vector as
// set_field/dec_ttl actions apply.
func (p *Program) Run(pkt *Packet) Result {
	res := Result{Verdict: Continued}
	for _, t := range p.Tables {
		act := t.DefaultAction
		hit := false
		for _, e := range t.entries {
			if e.matches(pkt) {
				act, hit = e.Action, true
				break
			}
		}
		if hit {
			t.Hits++
		} else {
			t.Misses++
		}
		res.Trace = append(res.Trace, TraceStep{Table: t.Name, Hit: hit, Action: act})
		switch act.Kind {
		case ActForward:
			res.Verdict, res.Port = Forwarded, act.Port
			return res
		case ActDrop:
			res.Verdict = Dropped
			return res
		case ActToCPU:
			res.Verdict = PuntedToCPU
			return res
		case ActSetField:
			pkt.Set(act.Field, act.Value)
		case ActDecTTL:
			ttl := pkt.Get(FieldTTL)
			if ttl <= 1 {
				res.Verdict = Dropped
				return res
			}
			pkt.Set(FieldTTL, ttl-1)
		case ActNoOp:
		}
	}
	return res
}

// TrapProgram builds the control-plane front-end of CTNR-B's soft ASIC:
// just the ACL and cpu_trap stages, falling through (Continued) to the
// fixed-function forwarder for data traffic. Building it with
// trapARP=false reproduces the §7 Case-2 ARP-trap bug at the pipeline
// level.
func TrapProgram(trapARP, trapBGP bool) *Program {
	prog := &Program{Name: "ctnrb_trap"}
	prog.AddTable("acl", Action{Kind: ActNoOp})
	trap := prog.AddTable("cpu_trap", Action{Kind: ActNoOp})
	if trapARP {
		trap.AddEntry(&Entry{
			Keys:   []Key{{Field: FieldProto, Kind: MatchExact, Value: 0}},
			Action: Action{Kind: ActToCPU},
		})
	}
	if trapBGP {
		trap.AddEntry(&Entry{
			Keys:   []Key{{Field: FieldProto, Kind: MatchExact, Value: uint32(netpkt.ProtoTCP)}},
			Action: Action{Kind: ActToCPU},
		})
	}
	return prog
}

// Clone returns a copy of the pipeline with independent hit/miss counters.
// Table rows are shared between clones: entries are immutable once
// installed, and AddEntry replaces a table's row array instead of editing
// it, so the clone's tables (one slab) point at the same arrays.
func (p *Program) Clone() *Program {
	c := &Program{Name: p.Name, Tables: make([]*Table, len(p.Tables))}
	tables := make([]Table, len(p.Tables))
	for i, t := range p.Tables {
		tables[i] = *t
		c.Tables[i] = &tables[i]
	}
	return c
}
