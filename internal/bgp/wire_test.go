package bgp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"crystalnet/internal/netpkt"
)

// This file tests the UPDATE fast path against the slow one it memoises: the
// wire image against the from-scratch encoder, the wire index against the
// parser.

// gen draws test inputs from a byte string, so one generator serves the
// seeded tests (random bytes) and the fuzz target (the fuzzer's bytes). An
// exhausted string yields zeros.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	v := g.b[0]
	g.b = g.b[1:]
	return v
}

func (g *gen) u32() uint32 {
	return uint32(g.byte())<<24 | uint32(g.byte())<<16 | uint32(g.byte())<<8 | uint32(g.byte())
}

func (g *gen) prefixes(max int) []netpkt.Prefix {
	var ps []netpkt.Prefix
	for n := int(g.byte()) % (max + 1); n > 0; n-- {
		p := netpkt.Prefix{Addr: netpkt.IP(g.u32()), Len: g.byte() % 33}
		p.Addr &= p.MaskIP()
		ps = append(ps, p)
	}
	return ps
}

// update draws an UPDATE: every optional attribute, AS_SETs, and (one draw in
// four) a path of 64-190 ASNs, which takes the extended-length encoding and
// makes the attribute list longer than the decoder's stack buffer.
func (g *gen) update() *Update {
	u := &Update{Withdrawn: g.prefixes(6)}
	flags := g.byte()
	if flags&1 != 0 {
		return u // withdraw-only
	}
	a := &Attrs{Origin: Origin(g.byte() % 3), Path: EmptyPath}
	if nseg := int(g.byte()) % 4; nseg > 0 {
		path := &ASPath{}
		for ; nseg > 0; nseg-- {
			seg := Segment{Type: ASSequence}
			if g.byte()&1 != 0 {
				seg.Type = ASSet
			}
			n := int(g.byte()) % 6
			if flags&6 == 6 {
				n = 64 + int(g.byte())%127
			}
			for ; n > 0; n-- {
				seg.ASNs = append(seg.ASNs, g.u32())
			}
			path.Segments = append(path.Segments, seg)
		}
		a.Path = path
	}
	if flags&8 != 0 {
		a.MED, a.HasMED = g.u32(), true
	}
	if flags&16 != 0 {
		a.LocalPref, a.HasLP = g.u32(), true
	}
	a.Atomic = flags&32 != 0
	if flags&64 != 0 {
		a.AggAS, a.AggID = g.u32()|1, netpkt.IP(g.u32())
	}
	u.Attrs, u.NextHop, u.NLRI = a, netpkt.IP(g.u32()), g.prefixes(40)
	return u
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// referenceMarshalUpdate is the UPDATE encoder as it was before the wire
// image: every field through the append helpers, the attributes from
// marshalAttrs with the real next hop.
func referenceMarshalUpdate(u *Update) []byte {
	withdrawn := marshalPrefixes(nil, u.Withdrawn)
	var attrs []byte
	if u.Attrs != nil {
		attrs, _ = marshalAttrs(u.Attrs, u.NextHop)
	}
	b := make([]byte, headerLen)
	b = binary.BigEndian.AppendUint16(b, uint16(len(withdrawn)))
	b = append(b, withdrawn...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(attrs)))
	b = append(b, attrs...)
	b = marshalPrefixes(b, u.NLRI)
	putHeader(b, MsgUpdate)
	return b
}

func attrsEqual(a, b *Attrs) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Origin == b.Origin && a.Path.Equal(b.Path) && a.NextHop == b.NextHop &&
		a.MED == b.MED && a.HasMED == b.HasMED && a.LocalPref == b.LocalPref && a.HasLP == b.HasLP &&
		a.Atomic == b.Atomic && a.AggAS == b.AggAS && a.AggID == b.AggID
}

// TestWireImageIsTheEncoder: the bytes of an UPDATE are the same whether its
// attributes come from the memoised image (caller-built attrs, then the
// interned object, then again once the memo is warm) or from the encoder.
func TestWireImageIsTheEncoder(t *testing.T) {
	tab := NewAttrTable()
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		u := (&gen{b: randomBytes(rng, 1024)}).update()
		want := referenceMarshalUpdate(u)
		for pass := 0; pass < 3; pass++ {
			if got := MarshalUpdate(u); !bytes.Equal(got, want) {
				t.Fatalf("update %d pass %d: wire image encodes\n% x\nencoder\n% x", i, pass, got, want)
			}
			u.Attrs = tab.Intern(u.Attrs)
		}
		if u.Attrs != nil && MaxNLRIPerUpdate(u.Attrs) != (maxMessageLen-headerLen-4-len(u.Attrs.memo.wire))/5 {
			t.Fatalf("update %d: MaxNLRIPerUpdate disagrees with the image length", i)
		}
	}
}

// checkDecodeTwice decodes msg through a new table, where the attributes can
// only come from parseAttrs, and then again through the same table, where
// they come from the wire index if the list is indexable, and requires one
// answer, which Decode (no table) must give too. It returns the decode and
// the table.
func checkDecodeTwice(t *testing.T, msg []byte) (*Decoded, *AttrTable) {
	t.Helper()
	tab := NewAttrTable()
	hits0, misses0, _ := InternStats()
	cold, errCold := decode(msg, tab)
	warm, errWarm := decode(msg, tab)
	hits, misses, _ := InternStats()
	plain, errPlain := Decode(msg)
	if errCold != errWarm || errCold != errPlain {
		t.Fatalf("cold decode: %v, warm decode: %v, Decode: %v\n% x", errCold, errWarm, errPlain, msg)
	}
	if errCold != nil || cold.Type != MsgUpdate {
		return cold, tab
	}
	c, w, p := cold.Update, warm.Update, plain.Update
	if c.Attrs != w.Attrs || c.NextHop != w.NextHop || !slices.Equal(c.NLRI, w.NLRI) || !slices.Equal(c.Withdrawn, w.Withdrawn) {
		t.Fatalf("warm decode differs from cold:\ncold %+v {%v}\nwarm %+v {%v}\n% x", c, c.Attrs, w, w.Attrs, msg)
	}
	if !attrsEqual(c.Attrs, p.Attrs) || c.NextHop != p.NextHop || !slices.Equal(c.NLRI, p.NLRI) || !slices.Equal(c.Withdrawn, p.Withdrawn) {
		t.Fatalf("Decode differs from the table's decode:\ntable  %+v {%v}\nDecode %+v {%v}\n% x", c, c.Attrs, p, p.Attrs, msg)
	}
	if c.Attrs != nil {
		// (The crystaldebug oracle interns once more per index hit.)
		hits, misses = hits-hits0, misses-misses0
		if n, _ := tableSize(tab); (hits != 1 && !debugAttrs) || hits == 0 || misses != 1 || n != 1 {
			t.Fatalf("two decodes of one attribute list: hits=%d misses=%d size=%d, want 1/1/1", hits, misses, n)
		}
	}
	return cold, tab
}

func TestDecodeRoundTripsGeneratedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	indexed, long := 0, 0
	for i := 0; i < 2000; i++ {
		u := (&gen{b: randomBytes(rng, 1024)}).update()
		msg := MarshalUpdate(u)
		if len(msg) > maxMessageLen {
			continue
		}
		d, tab := checkDecodeTwice(t, msg)
		if d == nil {
			t.Fatalf("update %d does not decode: % x", i, msg)
		}
		g := d.Update
		want := u.Attrs
		if want != nil {
			want = want.editable() // NEXT_HOP rides the Update
			want.NextHop = 0
		}
		if !attrsEqual(g.Attrs, want) || (u.Attrs != nil && g.NextHop != u.NextHop) ||
			!slices.Equal(g.NLRI, u.NLRI) || !slices.Equal(g.Withdrawn, u.Withdrawn) {
			t.Fatalf("update %d round trip:\nsent %+v {%v}\ngot  %+v {%v}", i, u, u.Attrs, g, g.Attrs)
		}
		if u.Attrs != nil {
			_, n := tableSize(tab)
			indexed += n
			if len(u.Attrs.memo.wire) > maxIndexedAttrs {
				long++
				if n != 0 {
					t.Fatalf("update %d: a %d-octet attribute list was indexed", i, len(u.Attrs.memo.wire))
				}
			}
		}
	}
	if indexed == 0 || long == 0 {
		t.Fatalf("generator covered %d indexed and %d over-long attribute lists; want both", indexed, long)
	}
}

// updateWithAttrBytes frames raw attribute bytes as an UPDATE for 10.0.0.0/8.
func updateWithAttrBytes(attrs []byte) []byte {
	msg := make([]byte, headerLen, headerLen+4+len(attrs)+2)
	msg = append(msg, 0, 0, byte(len(attrs)>>8), byte(len(attrs)))
	msg = append(msg, attrs...)
	msg = append(msg, 8, 10)
	putHeader(msg, MsgUpdate)
	return msg
}

// TestWireIndexLeavesOddListsToTheParser: what the TLV walk cannot place goes
// to parseAttrs, with parseAttrs' verdict, and is never indexed; byte strings
// that differ only in the NEXT_HOP value share one index entry.
func TestWireIndexLeavesOddListsToTheParser(t *testing.T) {
	origin := appendAttr(nil, flagTransitive, attrOrigin, []byte{0})
	path := appendAttr(nil, flagTransitive, attrASPath, []byte{2, 1, 0, 0, 0xfd, 0xe9})
	nh := func(v ...byte) []byte { return appendAttr(nil, flagTransitive, attrNextHop, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	for _, tc := range []struct {
		name    string
		attrs   []byte
		err     error
		indexed int
	}{
		{"plain", cat(origin, path, nh(10, 0, 0, 1)), nil, 1},
		{"next hop first", cat(nh(10, 0, 0, 1), origin, path), nil, 1},
		{"no next hop", cat(origin, path), ErrMalformed, 0},
		{"two next hops", cat(origin, path, nh(10, 0, 0, 1), nh(10, 0, 0, 2)), nil, 0},
		{"short next hop", cat(origin, path, nh(10, 0, 0)), ErrMalformed, 0},
		{"truncated header", cat(origin, path, nh(10, 0, 0, 1), []byte{flagTransitive, attrMED}), ErrMalformed, 0},
		{"length past the end", cat(origin, path, nh(10, 0, 0, 1), []byte{flagOptional, attrMED, 9, 1}), ErrMalformed, 0},
		{"truncated extended length", cat(origin, path, nh(10, 0, 0, 1), []byte{flagOptional | flagExtLen, attrMED, 0}), ErrMalformed, 0},
		{"bad origin", cat(appendAttr(nil, flagTransitive, attrOrigin, []byte{7}), path, nh(10, 0, 0, 1)), ErrMalformed, 0},
		{"unknown optional", cat(origin, path, nh(10, 0, 0, 1), appendAttr(nil, flagOptional, 99, []byte{1, 2})), nil, 1},
		{"over the buffer", cat(origin, path, nh(10, 0, 0, 1), appendAttr(nil, flagOptional, 99, make([]byte, 300))), nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := updateWithAttrBytes(tc.attrs)
			tab := NewAttrTable()
			_, err := decode(msg, tab)
			if err != tc.err {
				t.Fatalf("decode: %v, want %v", err, tc.err)
			}
			if _, n := tableSize(tab); n != tc.indexed {
				t.Fatalf("wire index holds %d entries, want %d", n, tc.indexed)
			}
			d, _ := checkDecodeTwice(t, msg)
			if tc.err == nil {
				if a, wantNH, err := parseAttrs(tc.attrs); err != nil || !attrsEqual(a, d.Update.Attrs) || wantNH != d.Update.NextHop {
					t.Fatalf("Decode gave {%v} nh=%v; parseAttrs {%v} nh=%v err=%v", d.Update.Attrs, d.Update.NextHop, a, wantNH, err)
				}
			}
		})
	}

	tab := NewAttrTable()
	d1, err1 := decode(updateWithAttrBytes(cat(origin, path, nh(10, 0, 0, 1))), tab)
	d2, err2 := decode(updateWithAttrBytes(cat(origin, path, nh(10, 9, 9, 9))), tab)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if _, n := tableSize(tab); d1.Update.Attrs != d2.Update.Attrs || n != 1 {
		t.Fatalf("two next hops over one attribute set: same object %v, %d index entries", d1.Update.Attrs == d2.Update.Attrs, n)
	}
	if d1.Update.NextHop != ip("10.0.0.1") || d2.Update.NextHop != ip("10.9.9.9") {
		t.Fatalf("next hops %v %v", d1.Update.NextHop, d2.Update.NextHop)
	}
}

// FuzzDecode: the decoder never panics on arbitrary bytes — the prefix
// counting pass and the attribute walk index by lengths the sender chose —
// and gives one answer whether the attributes resolve through the parser or
// a table's wire index, or are parsed with no table (Decode); an UPDATE generated from the same bytes encodes exactly as the
// from-scratch encoder does and decodes to what was sent.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(MarshalKeepalive())
	f.Add(MarshalOpen(&Open{AS: 4200000123, HoldTime: 180, BGPID: 7, Gen: 3}))
	f.Add(MarshalNotification(&Notification{Code: NotifCease, Data: []byte("bye")}))
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 8; i++ {
		f.Add(MarshalUpdate((&gen{b: randomBytes(rng, 1024)}).update()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeTwice(t, data)

		u := (&gen{b: data}).update()
		msg := MarshalUpdate(u)
		if want := referenceMarshalUpdate(u); !bytes.Equal(msg, want) {
			t.Fatalf("wire image encodes\n% x\nencoder\n% x", msg, want)
		}
		if len(msg) > maxMessageLen {
			return
		}
		d, _ := checkDecodeTwice(t, msg)
		if d == nil {
			t.Fatalf("generated update does not decode: % x", msg)
		}
		want := u.Attrs
		if want != nil {
			want = want.editable()
			want.NextHop = 0
		}
		if g := d.Update; !attrsEqual(g.Attrs, want) || (u.Attrs != nil && g.NextHop != u.NextHop) ||
			!slices.Equal(g.NLRI, u.NLRI) || !slices.Equal(g.Withdrawn, u.Withdrawn) {
			t.Fatalf("round trip:\nsent %+v {%v}\ngot  %+v {%v}", u, u.Attrs, g, g.Attrs)
		}
	})
}

// TestOversizedAttrsAreNotAdvertised: attributes that alone overflow the
// 4096-octet message used to yield MaxNLRIPerUpdate <= 0, an over-long UPDATE,
// a decode error at the receiver, a session reset, and the same again after
// every re-establishment. Now the route is withheld, counted and logged, and
// the session and every other route are left alone.
func TestOversizedAttrsAreNotAdvertised(t *testing.T) {
	n := newTnet(t)
	var logs []string
	a := n.add("a", 65001, nil)
	a.r.hooks.Logf = func(format string, args ...any) { logs = append(logs, format) }
	b := n.add("b", 65002, nil)
	resets := 0
	b.r.hooks.SessionEvent = func(_ int, _, s SessionState) {
		if s == StateIdle {
			resets++
		}
	}
	pa, pb := n.connect("a", "b")

	long := make([]uint32, 1200)
	for i := range long {
		long[i] = uint32(100000 + i)
	}
	huge := &Attrs{Origin: OriginIGP, Path: &ASPath{Segments: []Segment{
		{Type: ASSequence, ASNs: long[:255]}, {Type: ASSequence, ASNs: long[255:510]},
		{Type: ASSequence, ASNs: long[510:765]}, {Type: ASSequence, ASNs: long[765:1020]},
		{Type: ASSequence, ASNs: long[1020:]},
	}}}
	if max := MaxNLRIPerUpdate(huge); max > 0 {
		t.Fatalf("test premise: MaxNLRIPerUpdate = %d for a 1,200-AS path", max)
	}
	a.r.InjectLocal(pfx("100.64.0.0/24"), huge)
	a.r.Originate(pfx("100.64.1.0/24"))
	n.run()

	if pa.State() != StateEstablished || pb.State() != StateEstablished || resets != 0 {
		t.Fatalf("session states %v/%v after %d resets; want Established and none", pa.State(), pb.State(), resets)
	}
	if _, ok := b.r.BestRoute(pfx("100.64.1.0/24")); !ok {
		t.Fatal("the ordinary route was not advertised")
	}
	if _, ok := b.r.BestRoute(pfx("100.64.0.0/24")); ok {
		t.Fatal("the oversized route reached the peer")
	}
	if _, ok := a.r.BestRoute(pfx("100.64.0.0/24")); !ok {
		t.Fatal("the oversized route left its own RIB")
	}
	if a.r.ExportFailures == 0 {
		t.Fatal("export failure not counted")
	}
	logged := false
	for _, l := range logs {
		logged = logged || strings.Contains(l, "do not fit")
	}
	if !logged {
		t.Fatalf("export failure not logged: %q", logs)
	}
}

// TestFramedUpdateIsMarshalUpdate: the UPDATEs a Peer sends are encoded
// behind netpkt.FrameHeadroom in one buffer, and the message behind the
// headroom is byte for byte what MarshalUpdate produces for the same update;
// a Peer's own sends carry that headroom too, OPEN and KEEPALIVE included.
func TestFramedUpdateIsMarshalUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 2000; i++ {
		u := (&gen{b: randomBytes(rng, 512)}).update()
		framed := marshalUpdate(u, netpkt.FrameHeadroom)
		if want := MarshalUpdate(u); !bytes.Equal(framed[netpkt.FrameHeadroom:], want) {
			t.Fatalf("update %d: framed message\n% x\nMarshalUpdate\n% x", i, framed[netpkt.FrameHeadroom:], want)
		}
		if cap(framed) != len(framed) {
			t.Fatalf("update %d: framed buffer sized %d for %d bytes", i, cap(framed), len(framed))
		}
	}
	n := newTnet(t)
	n.add("a", 65001, nil)
	n.add("b", 65002, nil)
	var frames [][]byte
	n.nodes["a"].r.hooks.SendToPeer = func(i int, frame []byte) {
		frames = append(frames, frame)
		wire, msg := n.nodes["a"].peerWire[i], frame[netpkt.FrameHeadroom:]
		n.eng.After(n.delay, func() { wire(msg) })
	}
	n.connect("a", "b")
	n.nodes["a"].r.Originate(pfx("100.64.0.0/24"))
	n.run()
	types := map[uint8]bool{}
	for _, f := range frames {
		d, err := Decode(f[netpkt.FrameHeadroom:])
		if err != nil {
			t.Fatalf("a sent a frame whose message does not decode: %v", err)
		}
		types[d.Type] = true
	}
	if !types[MsgOpen] || !types[MsgKeepalive] || !types[MsgUpdate] {
		t.Fatalf("message types sent: %v", types)
	}
}
