// The text codec: one request per line, space-separated tokens (keys and
// values hold no blanks or newlines), replies as lines — the same Requests
// and Replies the frame codec carries, spelled so a person with a terminal
// can type and read them. Request lines:
//
//	<NAME> <operands>           NAME and operands per the command table
//
// Reply lines, by Reply kind:
//
//	TOK    OK                   TVal   VAL <value>
//	TNil   NIL                  TUint  OK <n> (ReplyCount) or <NAME> <n>
//	TErr   ERR <message>        TText  the text itself (ReplyLines: many lines)
//
// Like the frame decoder, the tokenizer is zero-copy and allocation-free:
// every parsed key and value aliases the caller's line.
package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"

	"crafty/internal/kv"
)

// cutSpace splits b at its first space; found reports whether one existed.
func cutSpace(b []byte) (before, after []byte, found bool) {
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		return b[:i], b[i+1:], true
	}
	return b, nil, false
}

// fields iterates the blank-separated tokens of a line without allocating.
// Tokens alias the line.
type fields struct {
	b []byte
	i int
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r'
}

// next returns the next token, or ok=false when the line is exhausted.
func (f *fields) next() (tok []byte, ok bool) {
	for f.i < len(f.b) && isSpaceByte(f.b[f.i]) {
		f.i++
	}
	if f.i >= len(f.b) {
		return nil, false
	}
	start := f.i
	for f.i < len(f.b) && !isSpaceByte(f.b[f.i]) {
		f.i++
	}
	return f.b[start:f.i:f.i], true
}

// count returns how many tokens remain without consuming them.
func (f *fields) count() int {
	save, n := f.i, 0
	for {
		if _, ok := f.next(); !ok {
			break
		}
		n++
	}
	f.i = save
	return n
}

// cmdIs matches tok against an uppercase command name, ASCII
// case-insensitively, without a ToUpper copy.
func cmdIs(tok []byte, name string) bool {
	if len(tok) != len(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		b := tok[i]
		if b >= 'a' && b <= 'z' {
			b -= 'a' - 'A'
		}
		if b != name[i] {
			return false
		}
	}
	return true
}

// ParseLine parses one request line (its newline already trimmed) into a
// Request, appending one kv.Op per operand to ops. Keys and values alias
// line. On a usage error the returned Request still names the command, so
// the caller can tell which one was misused.
//
// A space ends the command name. Single-operand commands split on spaces
// only, and a PUT's value is the rest of its line; the multi-operand commands
// split on any blank. Operands after a command that takes none are ignored.
func ParseLine(line []byte, ops []kv.Op) (Request, error) {
	name, rest, hasArgs := cutSpace(line)
	var cmd *Command
	for i := range Commands {
		if cmdIs(name, Commands[i].Name) {
			cmd = &Commands[i]
			break
		}
	}
	if cmd == nil {
		return Request{Ops: ops}, &UnknownCommandError{What: fmt.Sprintf("command %q", name)}
	}
	req := Request{Type: cmd.Type, Ops: ops}
	switch cmd.Args {
	case ArgsKey:
		key, _, more := cutSpace(rest)
		if !hasArgs || more {
			return req, &UsageError{cmd}
		}
		req.Ops = append(ops, kv.Op{Kind: cmd.Op, Key: key})
	case ArgsKeyValue:
		key, val, ok := cutSpace(rest)
		if !hasArgs || !ok {
			return req, &UsageError{cmd}
		}
		req.Ops = append(ops, kv.Op{Kind: cmd.Op, Key: key, Value: val})
	case ArgsKeys, ArgsPairs:
		// Validate the parsed token list, not the raw split: "MGET " carries
		// a separator but no keys, and the protocol owes the client exactly
		// one reply per key or an error.
		f := fields{b: rest}
		per := 1
		if cmd.Args == ArgsPairs {
			per = 2
		}
		if n := f.count(); n == 0 || n%per != 0 {
			return req, &UsageError{cmd}
		}
		for k, ok := f.next(); ok; k, ok = f.next() {
			op := kv.Op{Kind: cmd.Op, Key: k}
			if per == 2 {
				op.Value, _ = f.next() // the count is even, so the pair exists
			}
			req.Ops = append(req.Ops, op)
		}
	}
	return req, nil
}

// textToken reports whether b survives the text codec as one token.
func textToken(b []byte) bool {
	for _, c := range b {
		if isSpaceByte(c) || c == '\n' {
			return false
		}
	}
	return len(b) > 0
}

// LineEncoder writes requests and replies as text lines — the line-writing
// twin of Encoder. Not safe for concurrent use; I/O errors are bufio-sticky
// and surface at the caller's Flush. It is one pointer wide, so building one
// and holding it in an interface allocates nothing.
type LineEncoder struct{ w *bufio.Writer }

// NewLineEncoder wraps w.
func NewLineEncoder(w *bufio.Writer) LineEncoder { return LineEncoder{w: w} }

// Flush flushes the underlying writer.
func (e LineEncoder) Flush() error { return e.w.Flush() }

// Request writes req as one line. A request the text codec cannot carry — a
// wrong operand count, or a key or value that is empty or holds a blank or a
// newline — is refused with a typed error before any byte is written, never
// mis-framed.
func (e LineEncoder) Request(req Request) error {
	cmd, ok := Lookup(req.Type)
	if !ok {
		return unknownType(req.Type)
	}
	if err := cmd.check(req.Ops); err != nil {
		return err
	}
	pairs := cmd.Args == ArgsKeyValue || cmd.Args == ArgsPairs
	for i := range req.Ops {
		if !textToken(req.Ops[i].Key) {
			return &NotTextError{"key"}
		}
		if pairs && !textToken(req.Ops[i].Value) {
			return &NotTextError{"value"}
		}
	}
	e.w.WriteString(cmd.Name)
	for i := range req.Ops {
		e.w.WriteByte(' ')
		e.w.Write(req.Ops[i].Key)
		if pairs {
			e.w.WriteByte(' ')
			e.w.Write(req.Ops[i].Value)
		}
	}
	return e.w.WriteByte('\n')
}

// WriteReply writes r, a reply to command cmd, as text. This is the only
// place a VAL line is written: a value holding a newline would be read as two
// replies, shifting every later reply of the connection by one, so it is
// answered with a typed ERR line instead.
func (e LineEncoder) WriteReply(cmd Type, r Reply) error {
	switch r.Kind {
	case TOK:
		e.w.WriteString("OK")
	case TNil:
		e.w.WriteString("NIL")
	case TVal:
		if bytes.IndexByte(r.Val, '\n') >= 0 || bytes.IndexByte(r.Val, '\r') >= 0 {
			return e.WriteReply(cmd, Reply{Kind: TErr, Msg: (&NotTextError{"value"}).Error()})
		}
		e.w.WriteString("VAL ")
		e.w.Write(r.Val)
	case TUint:
		verb := "OK"
		if c, ok := Lookup(cmd); ok && c.Reply == ReplyUint {
			verb = c.Name
		}
		e.w.WriteString(verb)
		e.w.WriteByte(' ')
		e.w.Write(strconv.AppendUint(e.w.AvailableBuffer(), r.N, 10))
	case TErr:
		e.w.WriteString("ERR")
		if r.Msg != "" {
			e.w.WriteByte(' ')
			e.w.WriteString(r.Msg)
		}
	default:
		e.w.WriteString(r.Msg)
	}
	return e.w.WriteByte('\n')
}

// LineReader reads text replies — the line-reading twin of Reader.
type LineReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewLineReader wraps r.
func NewLineReader(r *bufio.Reader) *LineReader { return &LineReader{r: r} }

// line appends the next line, minus its line ending, to d.buf.
func (d *LineReader) line() error {
	start := len(d.buf)
	for {
		chunk, err := d.r.ReadSlice('\n')
		d.buf = append(d.buf, chunk...)
		if err != bufio.ErrBufferFull {
			d.buf = d.buf[:start+len(bytes.TrimRight(d.buf[start:], "\r\n"))]
			return err
		}
	}
}

// ReadReply reads one reply to command cmd. Text replies do not describe
// themselves — "OK 3" is a count after MPUT and would be text after anything
// else — so the command's reply shape decides the reading. Val aliases the
// reader's buffer, valid until the next read.
func (d *LineReader) ReadReply(cmd Type) (Reply, error) {
	c, ok := Lookup(cmd)
	if !ok {
		return Reply{}, unknownType(cmd)
	}
	d.buf = d.buf[:0]
	if err := d.line(); err != nil {
		return Reply{}, err
	}
	line := d.buf
	verb := "OK "
	if c.Reply == ReplyUint {
		verb = c.Name + " "
	}
	switch {
	case string(line) == "ERR":
		return Reply{Kind: TErr}, nil
	case bytes.HasPrefix(line, []byte("ERR ")):
		return Reply{Kind: TErr, Msg: string(line[4:])}, nil
	case c.Reply == ReplyLines:
		n, err := strconv.Atoi(string(bytes.TrimPrefix(line, []byte(c.Name+" "))))
		if err != nil || n < 0 {
			return Reply{}, protoErrf("%v: bad header line %q", cmd, line)
		}
		for i := 0; i < n; i++ {
			d.buf = append(d.buf, '\n')
			if err := d.line(); err != nil {
				return Reply{}, err
			}
		}
		return Reply{Kind: TText, Msg: string(d.buf)}, nil
	case c.Reply == ReplyText:
	case string(line) == "OK":
		return Reply{Kind: TOK}, nil
	case string(line) == "NIL":
		return Reply{Kind: TNil}, nil
	case c.Reply == ReplyVals && bytes.HasPrefix(line, []byte("VAL ")):
		return Reply{Kind: TVal, Val: line[4:]}, nil
	case (c.Reply == ReplyCount || c.Reply == ReplyUint) && bytes.HasPrefix(line, []byte(verb)):
		if n, err := strconv.ParseUint(string(line[len(verb):]), 10, 64); err == nil {
			return Reply{Kind: TUint, N: n}, nil
		}
	}
	return Reply{Kind: TText, Msg: string(line)}, nil
}
