// The command table: the one place that says which commands exist, how each
// is spelled in the text codec, which frame type carries it, how its
// operands are laid out, whether it mutates the store, and what its replies
// look like. Both codecs, the server's dispatcher and renderer, the client,
// and the protocol documentation all read this table; none restates it.
package wire

import (
	"fmt"

	"crafty/internal/kv"
)

// Args is how a command's operands are laid out, in both codecs.
type Args uint8

const (
	ArgsNone     Args = iota // no operands
	ArgsKey                  // exactly one key
	ArgsKeyValue             // exactly one key and its value
	ArgsKeys                 // one or more keys
	ArgsPairs                // one or more key/value pairs
)

// Operands is the operand synopsis usage errors and the docs print.
func (a Args) Operands() string {
	return [...]string{
		ArgsNone:     "",
		ArgsKey:      "<key>",
		ArgsKeyValue: "<key> <value>",
		ArgsKeys:     "<key> [<key> ...]",
		ArgsPairs:    "<key> <value> [<key> <value> ...]",
	}[a]
}

// Shape is what a command's replies look like. Any reply may instead be an
// ERR carrying a message.
type Shape uint8

const (
	ReplyOK    Shape = iota + 1 // one OK
	ReplyVals                   // one VAL or NIL per key, in key order
	ReplyFound                  // one OK or NIL per key, in key order
	ReplyCount                  // one UINT, the operations applied ("OK <n>" as text)
	ReplyUint                   // one UINT ("<NAME> <n>" as text)
	ReplyText                   // one TEXT line
	ReplyLines                  // one TEXT: a "<NAME> <n>" header line, then n lines
)

// Command is one row of the command table.
type Command struct {
	Name    string    // text spelling; matched ASCII case-insensitively
	Type    Type      // request frame type
	Args    Args      // operand layout
	Op      kv.OpKind // what each operand does (commands with operands only)
	Mutates bool      // changes the store: refused by a read-only replica
	Reply   Shape
}

// Commands is the command table, indexed by Type - TGet.
var Commands = [...]Command{
	{"GET", TGet, ArgsKey, kv.OpGet, false, ReplyVals},
	{"PUT", TPut, ArgsKeyValue, kv.OpPut, true, ReplyOK},
	{"DEL", TDel, ArgsKey, kv.OpDelete, true, ReplyFound},
	{"MGET", TMGet, ArgsKeys, kv.OpGet, false, ReplyVals},
	{"MPUT", TMPut, ArgsPairs, kv.OpPut, true, ReplyCount},
	{"MDEL", TMDel, ArgsKeys, kv.OpDelete, true, ReplyFound},
	{"LEN", TLen, ArgsNone, 0, false, ReplyUint},
	{"SYNC", TSync, ArgsNone, 0, false, ReplyOK},
	{"INFO", TInfo, ArgsNone, 0, false, ReplyLines},
	{"CHECKPOINT", TCheckpoint, ArgsNone, 0, false, ReplyText},
	{"CRASH", TCrash, ArgsNone, 0, false, ReplyText},
	{"PROMOTE", TPromote, ArgsNone, 0, false, ReplyText},
	{"REPLINFO", TReplInfo, ArgsNone, 0, false, ReplyText},
	{"QUIT", TQuit, ArgsNone, 0, false, ReplyText},
}

// Lookup returns the table row of a request type.
func Lookup(t Type) (*Command, bool) {
	if i := int(t) - int(TGet); i >= 0 && i < len(Commands) {
		return &Commands[i], true
	}
	return nil, false
}

// Request is one decoded command: its type and, for commands with operands,
// one kv.Op per key (with its value, for puts).
type Request struct {
	Type Type
	Ops  []kv.Op
}

// Replies is the number of Reply values that answer req.
func (c *Command) Replies(req Request) int {
	if c.Reply == ReplyVals || c.Reply == ReplyFound {
		return len(req.Ops)
	}
	return 1
}

// check holds a request's operand count to the command's layout.
func (c *Command) check(ops []kv.Op) error {
	ok := len(ops) > 0
	switch c.Args {
	case ArgsNone:
		ok = len(ops) == 0
	case ArgsKey, ArgsKeyValue:
		ok = len(ops) == 1
	}
	if !ok {
		return &UsageError{c}
	}
	return nil
}

// Reply is one decoded reply. Kind is a response Type and selects which
// field carries the body: Val for TVal, N for TUint, Msg for TErr and TText.
type Reply struct {
	Kind Type
	Val  []byte
	N    uint64
	Msg  string
}

// UsageError reports a command spelled with the wrong number of operands.
type UsageError struct{ Cmd *Command }

func (e *UsageError) Error() string {
	return "usage: " + e.Cmd.Name + " " + e.Cmd.Args.Operands()
}

// UnknownCommandError reports a request naming no row of the table: What is
// `command "NAME"` from the text codec and `frame type T` from the frame one.
type UnknownCommandError struct{ What string }

func (e *UnknownCommandError) Error() string { return "unknown " + e.What }

func unknownType(t Type) error {
	return &UnknownCommandError{What: fmt.Sprintf("frame type %v", t)}
}

// NotTextError reports a key or value the text codec cannot carry: tokens
// are delimited by blanks and lines by newlines, so an empty token, or one
// holding either, would be read back as something else.
type NotTextError struct{ What string }

func (e *NotTextError) Error() string {
	return e.What + " not representable in the text protocol"
}
