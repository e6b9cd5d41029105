package spec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"ftsched/internal/graph"
	"ftsched/internal/wire"
)

// The spec document is {"exec":[{"op","proc","duration"}...],
// "comm":[{"src","dst","link","duration"}...]}. Both codecs below work on
// the bytes directly (DESIGN.md §17): the encoder writes what
// encoding/json.Marshal wrote for the old reflection structs, and the
// decoder accepts exactly what encoding/json.Unmarshal accepted into them.

// MarshalJSON encodes the constraints with deterministic ordering: exec
// entries by operation then processor, comm entries by dependency then
// link. An exec duration is written in %g form, Inf as 1e999; an empty
// table is written as null.
func (s *Spec) MarshalJSON() ([]byte, error) {
	var buf []cell // one row's cells, reused across rows
	ops, procRank := s.exec.byName(strings.Compare)
	edges, linkRank := s.comm.byName(compareEdges)

	// Size the buffer exactly, so a document kept in memory carries no
	// slack.
	var num [32]byte
	size, n := len(`{"exec":,"comm":}`), 0
	procLen := nameLens(s.exec.cols.names)
	for r, op := range s.exec.rows.names {
		s.exec.each(int32(r), func(c int32, d float64) {
			n++
			size += len(`{"op":,"proc":,"duration":}`) + wire.StringLen(op) + procLen[c] + len(appendExecDuration(num[:0], d))
		})
	}
	size += wire.ListLen(n)
	n = 0
	linkLen := nameLens(s.comm.cols.names)
	for r, e := range s.comm.rows.names {
		ends := len(`{"src":,"dst":,"link":,"duration":}`) + wire.StringLen(e.Src) + wire.StringLen(e.Dst)
		s.comm.each(int32(r), func(c int32, d float64) {
			n++
			size += ends + linkLen[c] + wire.FloatLen(d)
		})
	}
	size += wire.ListLen(n)

	b := make([]byte, 0, size)
	b = append(b, `{"exec":`...)
	list := len(b)
	for _, r := range ops {
		op := s.exec.rows.names[r]
		buf = s.exec.sortedRow(buf, r, procRank)
		for _, cl := range buf {
			b = wire.AppendSep(b, list)
			b = append(b, `{"op":`...)
			b = wire.AppendString(b, op)
			b = append(b, `,"proc":`...)
			b = wire.AppendString(b, s.exec.cols.names[cl.col])
			b = append(b, `,"duration":`...)
			b = appendExecDuration(b, cl.v)
			b = append(b, '}')
		}
	}
	b = wire.EndList(b, list)
	b = append(b, `,"comm":`...)
	list = len(b)
	for _, r := range edges {
		e := s.comm.rows.names[r]
		buf = s.comm.sortedRow(buf, r, linkRank)
		for _, cl := range buf {
			b = wire.AppendSep(b, list)
			b = append(b, `{"src":`...)
			b = wire.AppendString(b, e.Src)
			b = append(b, `,"dst":`...)
			b = wire.AppendString(b, e.Dst)
			b = append(b, `,"link":`...)
			b = wire.AppendString(b, s.comm.cols.names[cl.col])
			b = append(b, `,"duration":`...)
			b = wire.AppendFloat(b, cl.v)
			b = append(b, '}')
		}
	}
	b = wire.EndList(b, list)
	return append(b, '}'), nil
}

// compareEdges orders dependencies by source, then destination.
func compareEdges(a, b graph.EdgeKey) int {
	if c := strings.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return strings.Compare(a.Dst, b.Dst)
}

// nameLens returns the encoded length of each name.
func nameLens(names []string) []int {
	lens := make([]int, len(names))
	for i, n := range names {
		lens[i] = wire.StringLen(n)
	}
	return lens
}

// cell is one entry of a table row.
type cell struct {
	col int32
	v   float64
}

// byName returns the table's rows in name order, and each column's
// position in name order.
func (t *table[R]) byName(cmpRows func(a, b R) int) (rows []int32, colRank []int32) {
	rows = make([]int32, len(t.rows.names))
	for i := range rows {
		rows[i] = int32(i)
	}
	slices.SortFunc(rows, func(a, b int32) int { return cmpRows(t.rows.names[a], t.rows.names[b]) })
	cols := make([]int32, len(t.cols.names))
	for i := range cols {
		cols[i] = int32(i)
	}
	slices.SortFunc(cols, func(a, b int32) int { return strings.Compare(t.cols.names[a], t.cols.names[b]) })
	colRank = make([]int32, len(cols))
	for rank, c := range cols {
		colRank[c] = int32(rank)
	}
	return rows, colRank
}

// sortedRow refills buf with the cells of row r in column name order, as
// given by colRank.
func (t *table[R]) sortedRow(buf []cell, r int32, colRank []int32) []cell {
	buf = buf[:0]
	t.each(r, func(c int32, v float64) { buf = append(buf, cell{c, v}) })
	slices.SortFunc(buf, func(a, b cell) int { return int(colRank[a.col] - colRank[b.col]) })
	return buf
}

// appendExecDuration writes an execution duration in %g form, Inf as
// 1e999, which decodes back to Inf.
func appendExecDuration(b []byte, d float64) []byte {
	if math.IsInf(d, 1) {
		return append(b, `1e999`...)
	}
	return strconv.AppendFloat(b, d, 'g', -1, 64)
}

// Member names of the spec document, as wire.Field matches them.
var (
	specFields = []string{"exec", "comm"}
	execFields = []string{"op", "proc", "duration"}
	commFields = []string{"src", "dst", "link", "duration"}
)

// execEntry and commEntry hold one decoded table entry. Their zero values
// are what encoding/json gave a null or empty entry: an exec entry with no
// duration, which is an error, and a comm entry for ("", "") at 0.
type execEntry struct {
	op, proc string
	dur      float64
	durOK    bool
	badDur   string // the rejected duration text, when !durOK
}

type commEntry struct {
	src, dst, link string
	dur            float64
}

// errReplay stops a streaming decode at a repeated top-level member.
var errReplay = errors.New("spec: decode: repeated table member")

// specDecoder decodes a spec document in one pass. Normally each entry is
// applied to the table as soon as it is read. encoding/json decodes a
// repeated "exec" or "comm" member into the slice the first one filled,
// entry over entry, so a document that repeats one is decoded again in
// replay mode, which keeps the entries the way that slice did and applies
// them at the end.
type specDecoder struct {
	d      *wire.Decoder
	sp     *Spec
	size   int64 // the document's length
	replay bool
	seen   [2]bool

	execErr, commErr error // first failing entry of each table

	// The first comm entry, its offset and the entries of its row so far,
	// until the comm table is reserved (see reserveComm).
	firstComm    commEntry
	firstCommOff int64
	firstCommN   int64
	commSized    bool

	// The previous entry of each table and the last comm duration, which
	// the next entry is likely to repeat.
	prevExec   execEntry
	prevComm   commEntry
	prevDurTok []byte
	prevDur    float64

	// Replay mode: each list's backing entries and its length. Entries
	// past the length are stale ones a later, longer array decodes onto.
	execs        []execEntry
	comms        []commEntry
	nExec, nComm int
}

// UnmarshalJSON decodes constraints encoded by MarshalJSON. It accepts
// what encoding/json accepted into the old reflection structs: member
// names match case-insensitively, unknown members are skipped, null
// leaves a value unset, and an exec duration may be a number or a quoted
// number, read as Inf when it overflows. A comm duration must be a finite
// number.
func (s *Spec) UnmarshalJSON(data []byte) error {
	ns, err := decodeSpec(data, false)
	if errors.Is(err, errReplay) {
		ns, err = decodeSpec(data, true)
	}
	if err != nil {
		return err
	}
	*s = *ns
	return nil
}

func decodeSpec(data []byte, replay bool) (*Spec, error) {
	x := &specDecoder{d: wire.NewDecoder(data), sp: New(), replay: replay, size: int64(len(data))}
	if err := x.document(); err != nil {
		var syn *wire.SyntaxError
		var num *strconv.NumError
		if errors.As(err, &syn) || errors.As(err, &num) {
			return nil, fmt.Errorf("spec: decode: %w", err)
		}
		return nil, err
	}
	if err := x.d.End(); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	if replay {
		for _, e := range x.execs[:x.nExec] {
			x.applyExec(e)
		}
		for _, c := range x.comms[:x.nComm] {
			x.applyComm(c)
		}
	}
	if x.execErr != nil {
		return nil, x.execErr
	}
	if x.commErr != nil {
		return nil, x.commErr
	}
	return x.sp, nil
}

// typeError reports a value of the wrong kind for its member, or the
// syntax error when no value starts there.
func (x *specDecoder) typeError(what string) error {
	var kind string
	switch c := x.d.Peek(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		_, err := x.d.Number() // fails: no value starts here
		return err
	}
	return fmt.Errorf("spec: decode: %s: unexpected %s at offset %d", what, kind, x.d.Offset())
}

// open starts a value that must be null or the container opened by c. It
// reports whether a container was opened; null is consumed and leaves the
// target as it is.
func (x *specDecoder) open(c byte, what string) (bool, error) {
	switch x.d.Peek() {
	case 'n':
		return false, x.d.Skip()
	case c:
		if c == '{' {
			return true, x.d.BeginObject()
		}
		return true, x.d.BeginArray()
	}
	return false, x.typeError(what)
}

// member reads up to the value of the next member of the open object that
// sets one of fields, skipping unknown members and null values, and
// returns the field's index. It returns -1 after the closing brace.
func (x *specDecoder) member(fields []string) (int, error) {
	for {
		key, more, err := x.d.Key()
		if !more || err != nil {
			return -1, err
		}
		if f := wire.Field(key, fields); f >= 0 && x.d.Peek() != 'n' {
			return f, nil
		}
		if err := x.d.Skip(); err != nil {
			return -1, err
		}
	}
}

// document reads the top-level value: null or an object.
func (x *specDecoder) document() error {
	ok, err := x.open('{', "spec document")
	if !ok || err != nil {
		return err
	}
	for {
		key, more, err := x.d.Key()
		if !more || err != nil {
			return err
		}
		f := wire.Field(key, specFields)
		switch {
		case f < 0:
			err = x.d.Skip()
		case x.seen[f] && !x.replay:
			return errReplay
		case f == 0:
			x.seen[f] = true
			err = x.execList()
		default:
			x.seen[f] = true
			err = x.commList()
		}
		if err != nil {
			return err
		}
	}
}

// execList and commList read a table member. A null or empty array leaves
// a fresh, empty list, as encoding/json does for a slice.
func (x *specDecoder) execList() error {
	ok, err := x.open('[', "exec")
	n := 0
	for ok && err == nil {
		if ok, err = x.d.Next(); !ok || err != nil {
			break
		}
		if !x.replay {
			var e execEntry
			if err = x.execEntry(&e); err == nil {
				x.applyExec(e)
			}
			continue
		}
		if n == len(x.execs) {
			x.execs = append(x.execs, execEntry{})
		}
		err = x.execEntry(&x.execs[n])
		n++
	}
	if n == 0 {
		x.execs = x.execs[:0]
	}
	x.nExec = n
	return err
}

func (x *specDecoder) commList() error {
	ok, err := x.open('[', "comm")
	n := 0
	for ok && err == nil {
		if ok, err = x.d.Next(); !ok || err != nil {
			break
		}
		if !x.replay {
			var c commEntry
			off := x.d.Offset()
			if err = x.commEntry(&c); err == nil {
				x.reserveComm(off, c)
				x.applyComm(c)
			}
			continue
		}
		if n == len(x.comms) {
			x.comms = append(x.comms, commEntry{})
		}
		err = x.commEntry(&x.comms[n])
		n++
	}
	if n == 0 {
		x.comms = x.comms[:0]
	}
	x.nComm = n
	return err
}

// name reads a string member and interns it. prev is the same member of
// the previous entry, which consecutive entries mostly repeat.
func (x *specDecoder) name(what string, dst *string, prev string) error {
	if x.d.Peek() != '"' {
		return x.typeError(what)
	}
	b, err := x.d.String()
	if err != nil {
		return err
	}
	if string(b) == prev {
		*dst = prev
	} else {
		*dst = x.d.Intern(b)
	}
	return nil
}

// execEntry reads an exec entry onto e: null leaves e as it is, an object
// sets the members it names.
func (x *specDecoder) execEntry(e *execEntry) error {
	ok, err := x.open('{', "exec entry")
	for ok && err == nil {
		var f int
		if f, err = x.member(execFields); f < 0 || err != nil {
			break
		}
		switch f {
		case 0:
			err = x.name("exec op", &e.op, x.prevExec.op)
		case 1:
			err = x.name("exec proc", &e.proc, x.prevExec.proc)
		default:
			err = x.execDuration(e)
		}
	}
	x.prevExec = *e
	return err
}

// execDuration reads a number, or a string holding exactly one number.
func (x *specDecoder) execDuration(e *execEntry) error {
	var tok []byte
	var err error
	switch c := x.d.Peek(); {
	case c == '"':
		if tok, err = x.d.String(); err == nil && !wire.IsNumber(tok) {
			return fmt.Errorf("spec: decode: exec duration %q is not a number", tok)
		}
	case c == '-' || '0' <= c && c <= '9':
		tok, err = x.d.Number()
	default:
		return x.typeError("exec duration")
	}
	if err != nil {
		return err
	}
	e.dur, e.durOK = numericDuration(string(tok))
	e.badDur = ""
	if !e.durOK {
		e.badDur = string(tok)
	}
	return nil
}

// commEntry reads a comm entry onto c like execEntry.
func (x *specDecoder) commEntry(c *commEntry) error {
	ok, err := x.open('{', "comm entry")
	for ok && err == nil {
		var f int
		if f, err = x.member(commFields); f < 0 || err != nil {
			break
		}
		switch f {
		case 0:
			err = x.name("comm src", &c.src, x.prevComm.src)
		case 1:
			err = x.name("comm dst", &c.dst, x.prevComm.dst)
		case 2:
			err = x.name("comm link", &c.link, x.prevComm.link)
		default:
			err = x.commDuration(c)
		}
	}
	x.prevComm = *c
	return err
}

// commDuration reads a number the way encoding/json fills a float64: a
// value out of range is an error. A dependency's durations are often the
// same on every link, so the text of the last one is kept with its value.
func (x *specDecoder) commDuration(c *commEntry) error {
	if b := x.d.Peek(); b != '-' && (b < '0' || b > '9') {
		return x.typeError("comm duration")
	}
	tok, err := x.d.Number()
	if err != nil {
		return err
	}
	if !bytes.Equal(tok, x.prevDurTok) {
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return err
		}
		x.prevDurTok, x.prevDur = tok, v
	}
	c.dur = x.prevDur
	return nil
}

// reserveComm sizes the comm table when the entry read at off starts its
// second row. Documents list the comm table row by row, so the rest of
// the document holds about as many rows as the first row's length in
// bytes fits; reserving them spares the table its growth copies. Only a
// first row whose entries are at least as long as the shortest canonical
// entry is trusted, so the reservation never exceeds a cell and a row
// name per such entry the input could still hold; a wrong estimate only
// wastes or misses capacity.
func (x *specDecoder) reserveComm(off int64, c commEntry) {
	switch {
	case x.commSized:
	case x.firstCommOff == 0:
		x.firstComm, x.firstCommOff, x.firstCommN = c, off, 1
	case c.src == x.firstComm.src && c.dst == x.firstComm.dst:
		x.firstCommN++
	default:
		x.commSized = true
		if rowBytes := off - x.firstCommOff; rowBytes >= x.firstCommN*minCommEntry {
			x.sp.comm.reserve(int((x.size-x.firstCommOff)/rowBytes) + 1)
		}
	}
}

// minCommEntry is the length of the shortest comm entry MarshalJSON
// writes.
const minCommEntry = int64(len(`{"src":"","dst":"","link":"","duration":0},`))

// applyExec and applyComm add an entry to the table, keeping the first
// failure of each table.
func (x *specDecoder) applyExec(e execEntry) {
	if x.execErr != nil {
		return
	}
	if !e.durOK {
		x.execErr = fmt.Errorf("spec: decode exec(%s,%s): bad duration %q", e.op, e.proc, e.badDur)
		return
	}
	x.execErr = x.sp.SetExec(e.op, e.proc, e.dur)
}

func (x *specDecoder) applyComm(c commEntry) {
	if x.commErr == nil {
		x.commErr = x.sp.SetComm(graph.EdgeKey{Src: c.src, Dst: c.dst}, c.link, c.dur)
	}
}

// parseDuration reads a duration of the text tables: "inf", "+inf",
// "infinity" or "∞" in any case, or a number, Inf when it overflows.
func parseDuration(tok string) (float64, error) {
	switch strings.ToLower(strings.TrimSpace(tok)) {
	case "inf", "+inf", "infinity", "∞":
		return Inf, nil
	}
	d, ok := numericDuration(strings.TrimSpace(tok))
	if !ok {
		return 0, fmt.Errorf("bad duration %q", tok)
	}
	return d, nil
}

// numericDuration parses a number as an execution duration: a value
// overflowing float64 is the Inf sentinel.
func numericDuration(tok string) (float64, bool) {
	d, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		// Overflow parses to ±Inf with ErrRange; treat +Inf as the sentinel.
		return Inf, errors.Is(err, strconv.ErrRange) && math.IsInf(d, 1)
	}
	if math.IsInf(d, 1) {
		return Inf, true
	}
	return d, true
}

// ExecTable renders the execution-time table in the paper's layout: one row
// per processor, one column per operation (given in display order).
func (s *Spec) ExecTable(ops, procs []string) string {
	var b strings.Builder
	b.WriteString("op/proc")
	for _, op := range ops {
		fmt.Fprintf(&b, "\t%s", op)
	}
	b.WriteByte('\n')
	for _, p := range procs {
		b.WriteString(p)
		for _, op := range ops {
			fmt.Fprintf(&b, "\t%s", formatDuration(s.Exec(op, p)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CommTable renders the communication-time table: one row per link, one
// column per dependency.
func (s *Spec) CommTable(edges []graph.EdgeKey, links []string) string {
	var b strings.Builder
	b.WriteString("dep/link")
	for _, e := range edges {
		fmt.Fprintf(&b, "\t%s", e)
	}
	b.WriteByte('\n')
	for _, l := range links {
		b.WriteString(l)
		for _, e := range edges {
			d, err := s.Comm(e, l)
			if err != nil {
				b.WriteString("\t-")
				continue
			}
			fmt.Fprintf(&b, "\t%s", formatDuration(d))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatDuration(d float64) string {
	if math.IsInf(d, 1) {
		return "inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", d), "0"), ".")
}
