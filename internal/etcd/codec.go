package etcd

import (
	"encoding/binary"
	"slices"
	"strings"

	"repro/internal/store"
)

// The wire format of a Raft entry's payload and of a state-machine
// snapshot. Nothing encoded here leaves the process or outlives it, so
// there is no version to negotiate and no old format to read.
//
//	command  := op:u8 flags:u8 reqID:uv floor:uv key:str value:str prev:str
//	            [ cmps:list(cmp) then:list(txnop) else:list(txnop) ]   flagTxn
//	            [ subs:list(len:uv command) ]                           flagSubs
//	cmp      := exists:u8 key:str prev:str
//	txnop    := type:u8 key:str value:str
//	snapshot := floor:uv kvs:list(key:str value:str rev:uv)
//	            ledger:list(reqID:uv index:uv)      kvs by key, ledger by reqID
//	str      := len:uv byte*          list(x) := count:uv x*
//	uv       := unsigned LEB128 (encoding/binary's uvarint)
//
// Both decoders are total: any input is either a value whose encoding is
// exactly that input, or rejected — never a panic, and never an
// allocation sized by a number the input merely claims. Decoding converts
// the payload to a string once and slices every key and value out of it:
// one allocation per command, plus one per list a Txn carries. (A key
// that stays in a replica's engine therefore keeps the payload of the
// command that first wrote it — its first value's bytes — reachable.)

const (
	flagPrevExists = 1 << iota
	flagTxn
	flagSubs
)

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func txnOpsLen(ops []TxnOp) int {
	n := uvarintLen(uint64(len(ops)))
	for _, op := range ops {
		n += 1 + strLen(op.Key) + strLen(op.Value)
	}
	return n
}

func appendTxnOps(b []byte, ops []TxnOp) []byte {
	b = binary.AppendUvarint(b, uint64(len(ops)))
	for _, op := range ops {
		b = append(b, byte(op.Type))
		b = appendStr(appendStr(b, op.Key), op.Value)
	}
	return b
}

func (c *command) flags() byte {
	var f byte
	if c.PrevExists {
		f |= flagPrevExists
	}
	if len(c.Cmps)+len(c.Then)+len(c.Else) > 0 {
		f |= flagTxn
	}
	if len(c.Subs) > 0 {
		f |= flagSubs
	}
	return f
}

// encodedLen is the exact length of c's encoding, so encode allocates once.
func (c *command) encodedLen() int {
	n := 2 + uvarintLen(c.ReqID) + uvarintLen(c.Floor) + strLen(c.Key) + strLen(c.Value) + strLen(c.Prev)
	f := c.flags()
	if f&flagTxn != 0 {
		n += uvarintLen(uint64(len(c.Cmps)))
		for _, cmp := range c.Cmps {
			n += 1 + strLen(cmp.Key) + strLen(cmp.Prev)
		}
		n += txnOpsLen(c.Then) + txnOpsLen(c.Else)
	}
	if f&flagSubs != 0 {
		n += uvarintLen(uint64(len(c.Subs)))
		for i := range c.Subs {
			sub := c.Subs[i].encodedLen()
			n += uvarintLen(uint64(sub)) + sub
		}
	}
	return n
}

func (c *command) appendTo(b []byte) []byte {
	f := c.flags()
	b = append(b, byte(c.Op), f)
	b = binary.AppendUvarint(binary.AppendUvarint(b, c.ReqID), c.Floor)
	b = appendStr(appendStr(appendStr(b, c.Key), c.Value), c.Prev)
	if f&flagTxn != 0 {
		b = binary.AppendUvarint(b, uint64(len(c.Cmps)))
		for _, cmp := range c.Cmps {
			var exists byte
			if cmp.PrevExists {
				exists = 1
			}
			b = appendStr(appendStr(append(b, exists), cmp.Key), cmp.Prev)
		}
		b = appendTxnOps(appendTxnOps(b, c.Then), c.Else)
	}
	if f&flagSubs != 0 {
		b = binary.AppendUvarint(b, uint64(len(c.Subs)))
		for i := range c.Subs {
			sub := &c.Subs[i]
			b = sub.appendTo(binary.AppendUvarint(b, uint64(sub.encodedLen())))
		}
	}
	return b
}

// encode renders c as a Raft entry payload.
func (c *command) encode() []byte {
	return c.appendTo(make([]byte, 0, c.encodedLen()))
}

// reader consumes a payload front to back. The first malformed field
// sets bad and every later read returns zero, so decoders check once.
type reader struct {
	s   string
	bad bool
}

func (r *reader) byte() byte {
	if len(r.s) == 0 {
		r.bad = true
		return 0
	}
	b := r.s[0]
	r.s = r.s[1:]
	return b
}

// bool reads a byte that must be 0 or 1 (anything else would not
// re-encode to itself).
func (r *reader) bool() bool {
	b := r.byte()
	if b > 1 {
		r.bad = true
	}
	return b == 1
}

func (r *reader) uvarint() uint64 {
	var x uint64
	for i := 0; i < len(r.s) && i < binary.MaxVarintLen64; i++ {
		b := r.s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 || i > 0 && b == 0 {
				break // overflows 64 bits, or is not the shortest form
			}
			r.s = r.s[i+1:]
			return x | uint64(b)<<(7*i)
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	r.bad = true
	return 0
}

func (r *reader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.s)) {
		r.bad = true
		return ""
	}
	s := r.s[:n]
	r.s = r.s[n:]
	return s
}

// count reads a list's length; each element takes at least min bytes,
// which bounds what a hostile count can make the caller allocate.
func (r *reader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.s)/min) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *reader) txnOps() []TxnOp {
	n := r.count(3)
	if n == 0 {
		return nil
	}
	ops := make([]TxnOp, n)
	for i := range ops {
		ops[i] = TxnOp{Type: EventType(r.byte()), Key: r.str(), Value: r.str()}
	}
	return ops
}

// maxSubDepth is how deep sub-commands nest: a wrapper holds plain
// commands, never another wrapper.
const maxSubDepth = 1

// decodeCommand parses a Raft entry payload. ok is false for anything
// encode cannot have produced.
func decodeCommand(payload []byte) (cmd command, ok bool) {
	return decodeCommandString(string(payload), 0)
}

func decodeCommandString(s string, depth int) (command, bool) {
	r := reader{s: s}
	var c command
	c.Op = opKind(r.byte())
	f := r.byte()
	c.ReqID, c.Floor = r.uvarint(), r.uvarint()
	c.Key, c.Value, c.Prev = r.str(), r.str(), r.str()
	c.PrevExists = f&flagPrevExists != 0
	if f&flagTxn != 0 {
		if n := r.count(3); n > 0 {
			c.Cmps = make([]Cmp, n)
			for i := range c.Cmps {
				c.Cmps[i] = Cmp{PrevExists: r.bool(), Key: r.str(), Prev: r.str()}
			}
		}
		c.Then, c.Else = r.txnOps(), r.txnOps()
	}
	if f&flagSubs != 0 {
		n := r.count(8)
		if depth >= maxSubDepth {
			r.bad = true
		}
		if n > 0 && !r.bad {
			c.Subs = make([]command, n)
			for i := range c.Subs {
				// Its own string, so a sub-command's keys and values
				// keep only that sub-command's bytes alive.
				sub, ok := decodeCommandString(strings.Clone(r.str()), depth+1)
				if !ok {
					return command{}, false
				}
				c.Subs[i] = sub
			}
		}
	}
	// An op the log does not carry, flags the encoder would not have set,
	// bytes it would not have written and a wrapper without sub-commands
	// (or sub-commands without a wrapper) make the input something other
	// than an encoding.
	if r.bad || len(r.s) != 0 || !c.Op.logged() || f != c.flags() || (c.Op == opBatch) != (len(c.Subs) > 0) {
		return command{}, false
	}
	return c, true
}

// logged reports whether the replicated log carries op: the writes and
// the wrapper that groups them, never a read.
func (op opKind) logged() bool {
	switch op {
	case opPut, opDelete, opCAS, opTxn, opBatch:
		return true
	}
	return false
}

// encodeSnapshot renders a state-machine image: the engine's Export (in
// key order) and the dedup ledger with its floor.
func encodeSnapshot(kvs []store.KV, floor uint64, ledger map[uint64]uint64) []byte {
	ids := make([]uint64, 0, len(ledger))
	n := uvarintLen(floor) + uvarintLen(uint64(len(kvs))) + uvarintLen(uint64(len(ledger)))
	for _, kv := range kvs {
		val, _ := kv.Value.(string)
		n += strLen(kv.Key) + strLen(val) + uvarintLen(kv.Rev)
	}
	for id, idx := range ledger {
		ids = append(ids, id)
		n += uvarintLen(id) + uvarintLen(idx)
	}
	slices.Sort(ids)

	b := binary.AppendUvarint(make([]byte, 0, n), floor)
	b = binary.AppendUvarint(b, uint64(len(kvs)))
	for _, kv := range kvs {
		val, _ := kv.Value.(string)
		b = binary.AppendUvarint(appendStr(appendStr(b, kv.Key), val), kv.Rev)
	}
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendUvarint(binary.AppendUvarint(b, id), ledger[id])
	}
	return b
}

// decodeSnapshot parses a state-machine image. ok is false for anything
// encodeSnapshot cannot have produced.
func decodeSnapshot(raw []byte) (kvs []store.KV, floor uint64, ledger map[uint64]uint64, ok bool) {
	r := reader{s: string(raw)}
	floor = r.uvarint()
	kvs = make([]store.KV, r.count(3))
	for i := range kvs {
		key, val := r.str(), r.str()
		kvs[i] = store.KV{Key: key, Value: val, Rev: r.uvarint()}
		if i > 0 && key <= kvs[i-1].Key {
			r.bad = true
		}
	}
	n := r.count(2)
	ledger = make(map[uint64]uint64, n)
	var last uint64
	for i := 0; i < n; i++ {
		id, idx := r.uvarint(), r.uvarint()
		if i > 0 && id <= last {
			r.bad = true
		}
		ledger[id], last = idx, id
	}
	if r.bad || len(r.s) != 0 {
		return nil, 0, nil, false
	}
	return kvs, floor, ledger, true
}
