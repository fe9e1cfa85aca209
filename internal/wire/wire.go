// Package wire is the craftykv command model and its two codecs. One table
// (Commands) names every command — its text spelling, its request frame
// type, how its operands are laid out, whether it mutates, and the shape of
// its replies — and both codecs are thin layers over that table:
//
//   - the frame codec: length-prefixed frames with TLV-style minimum-width
//     integer encoding, opened by a versioned handshake that lets the server
//     tell binary clients from line-protocol clients by the first byte;
//   - the text codec (text.go): one request per line, space-separated tokens,
//     replies as lines — the drop-in debug protocol.
//
// A Request or Reply value means the same thing whichever codec carried it;
// the server dispatches Requests and renders Replies and never sees bytes.
//
// Frame grammar (all integers use the minimum-width encoding of AppendUint):
//
//	handshake = 0xCF 'K' 'V' version '\n'        (both directions, once)
//	frame     = size type payload                (size covers type+payload)
//	string    = len bytes                        (len > 0 for keys/values)
//
// Request payloads, by the command's Args:
//
//	ArgsKey       key bytes (the whole payload; no inner length)
//	ArgsKeyValue  key-string value-string
//	ArgsKeys      count, then count key-strings
//	ArgsPairs     count, then count (key-string value-string) pairs
//	ArgsNone      empty
//
// Response payloads:
//
//	TOK, TNil           empty
//	TVal                value bytes (raw)
//	TUint               one minimum-width integer (LEN count, MPUT op count)
//	TErr                message bytes (raw, no "ERR " prefix)
//	TText               text blob (raw; may hold many lines, e.g. INFO)
//
// Replication payloads (repl.go; the -repl-listen port only): one or two
// integers, or for a commit group one; then, for a group or a snapshot chunk,
// a count and that many (kind key-string [value-string]) records or
// (key-string value-string) pairs — kind is kv.OpPut or kv.OpDelete, and only
// a put has a value.
//
// The first handshake byte (0xCF) can never start a text command, so one
// Peek distinguishes the codecs. Decoding is zero-copy in both: frame
// payloads live in the Reader's reusable buffer, text tokens in the caller's
// line, and every decoded key/value aliases them, valid only until the next
// read — callers that hand ops to another goroutine must copy first (the
// craftykv scheduler copies once, at request build time).
package wire

import (
	"fmt"
)

// Handshake bytes: a 0xCF lead byte (not printable ASCII, so never a text
// command), "KV", the protocol version, and a newline — the terminator lets
// a text-only peer parse the handshake as one garbage line and answer with
// a single ERR line, which is what the client's text fallback keys on.
const (
	Magic0 = 0xCF
	Magic1 = 'K'
	Magic2 = 'V'

	// Version is the newest protocol version this package speaks. The
	// server answers a handshake with min(its version, the client's), and
	// the client proceeds at the version the server named.
	Version = 1

	// HandshakeLen is the full handshake size in bytes.
	HandshakeLen = 5

	// DefaultMaxFrame bounds one frame (type byte + payload); it matches
	// the text protocol's one-line bound.
	DefaultMaxFrame = 1 << 20
)

// Type tags one frame. Requests, responses and replication frames (repl.go)
// share the tag space but not values, so a stream direction or port mix-up
// fails loudly.
type Type uint8

const (
	// Request frames.
	TGet Type = 0x01 + iota
	TPut
	TDel
	TMGet
	TMPut
	TMDel
	TLen
	TSync
	TInfo
	TCheckpoint
	TCrash
	TPromote
	TReplInfo
	TQuit
)

const (
	// Response frames.
	TOK Type = 0x20 + iota
	TNil
	TVal
	TUint
	TErr
	TText
)

// String names a frame type for diagnostics: a request type by its command's
// text spelling, a response type by its reply word, a replication type by its
// table row.
func (t Type) String() string {
	if c, ok := Lookup(t); ok {
		return c.Name
	}
	if t >= TReplHello && t <= TReplAck {
		return "REPL " + replFrames[t-TReplHello].name
	}
	if words := [...]string{"OK", "NIL", "VAL", "UINT", "ERR", "TEXT"}; t >= TOK && int(t-TOK) < len(words) {
		return words[t-TOK]
	}
	return fmt.Sprintf("Type(0x%02x)", uint8(t))
}

// ProtocolError is a fatal framing violation: after one, the stream position
// is no longer trustworthy and the connection must close.
type ProtocolError struct{ Msg string }

func (e *ProtocolError) Error() string { return "wire: " + e.Msg }

// protoErrf builds a ProtocolError.
func protoErrf(format string, args ...any) error {
	return &ProtocolError{Msg: fmt.Sprintf(format, args...)}
}

// FrameTooLargeError reports a frame whose declared size exceeds the
// reader's limit. Unlike a ProtocolError it is recoverable: the reader
// discards exactly the declared frame, so the stream stays framed and the
// server can answer with a typed error and keep the connection alive.
type FrameTooLargeError struct{ Size, Limit int }

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("wire: frame too large: %d bytes over the %d limit", e.Size, e.Limit)
}

// Minimum-width unsigned integer encoding (the TLV idiom): values below
// tag16 are one literal byte; larger values carry a width tag and exactly as
// many little-endian bytes as the smallest width that fits. Decoders reject
// non-minimal encodings, so every value has exactly one representation.
const (
	tag16 = 0xF8 // followed by 2 LE bytes; value must be >= tag16
	tag32 = 0xF9 // followed by 4 LE bytes; value must be > 0xFFFF
	tag64 = 0xFA // followed by 8 LE bytes; value must be > 0xFFFFFFFF
	// 0xFB..0xFF are reserved and rejected.
)

// SizeUint returns the encoded size of v in bytes.
func SizeUint(v uint64) int {
	switch {
	case v < tag16:
		return 1
	case v <= 0xFFFF:
		return 3
	case v <= 0xFFFFFFFF:
		return 5
	default:
		return 9
	}
}

// AppendUint appends the minimum-width encoding of v.
func AppendUint(dst []byte, v uint64) []byte {
	switch {
	case v < tag16:
		return append(dst, byte(v))
	case v <= 0xFFFF:
		return append(dst, tag16, byte(v), byte(v>>8))
	case v <= 0xFFFFFFFF:
		return append(dst, tag32, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	default:
		return append(dst, tag64,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
}

// Uint decodes one minimum-width integer at the front of b, returning the
// value and the number of bytes consumed. Truncated, reserved-tag, and
// non-minimal encodings are protocol errors.
func Uint(b []byte) (v uint64, n int, err error) {
	if len(b) == 0 {
		return 0, 0, protoErrf("truncated integer")
	}
	switch tag := b[0]; {
	case tag < tag16:
		return uint64(tag), 1, nil
	case tag == tag16:
		if len(b) < 3 {
			return 0, 0, protoErrf("truncated 16-bit integer")
		}
		v = uint64(b[1]) | uint64(b[2])<<8
		if v < tag16 {
			return 0, 0, protoErrf("non-minimal 16-bit encoding of %d", v)
		}
		return v, 3, nil
	case tag == tag32:
		if len(b) < 5 {
			return 0, 0, protoErrf("truncated 32-bit integer")
		}
		v = uint64(b[1]) | uint64(b[2])<<8 | uint64(b[3])<<16 | uint64(b[4])<<24
		if v <= 0xFFFF {
			return 0, 0, protoErrf("non-minimal 32-bit encoding of %d", v)
		}
		return v, 5, nil
	case tag == tag64:
		if len(b) < 9 {
			return 0, 0, protoErrf("truncated 64-bit integer")
		}
		v = uint64(b[1]) | uint64(b[2])<<8 | uint64(b[3])<<16 | uint64(b[4])<<24 |
			uint64(b[5])<<32 | uint64(b[6])<<40 | uint64(b[7])<<48 | uint64(b[8])<<56
		if v <= 0xFFFFFFFF {
			return 0, 0, protoErrf("non-minimal 64-bit encoding of %d", v)
		}
		return v, 9, nil
	default:
		return 0, 0, protoErrf("reserved integer tag 0x%02x", b[0])
	}
}

// AppendHandshake appends the 5-byte handshake for version.
func AppendHandshake(dst []byte, version byte) []byte {
	return append(dst, Magic0, Magic1, Magic2, version, '\n')
}

// ParseHandshake validates a handshake and returns the peer's version.
func ParseHandshake(b []byte) (version byte, err error) {
	if len(b) != HandshakeLen {
		return 0, protoErrf("handshake is %d bytes, want %d", len(b), HandshakeLen)
	}
	if b[0] != Magic0 || b[1] != Magic1 || b[2] != Magic2 || b[4] != '\n' {
		return 0, protoErrf("bad handshake magic % x", b)
	}
	if b[3] == 0 {
		return 0, protoErrf("bad handshake version 0")
	}
	return b[3], nil
}
