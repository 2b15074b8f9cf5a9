// Package workload provides the synthetic on-line transaction processing
// workloads the experiments run: deterministic pseudo-random generators
// that guests may use (seeded from their argument string, never from
// environmental state — §4's determinism requirement), payload builders,
// and reusable guest programs (a bank server, teller clients, an auditor,
// pipeline stages, and an echo server and client) shared by the examples,
// the simulator, the benchmark and the tests.
package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// Rand is a deterministic SplitMix64 generator. Guests must derive all
// randomness from state like this, seeded from their args, so a recovering
// backup draws the identical sequence.
type Rand struct {
	state uint64
}

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Next returns the next 64-bit value.
func (r *Rand) Next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// State returns the generator state (for storing in a KV heap between
// handler invocations).
func (r *Rand) State() uint64 { return r.state }

// Restore rebuilds a generator from stored state.
func Restore(state uint64) *Rand { return &Rand{state: state} }

// Pad returns a payload of exactly size bytes beginning with msg; the tail
// is filled deterministically.
func Pad(msg string, size int) []byte {
	out := make([]byte, size)
	copy(out, msg)
	for i := len(msg); i < size; i++ {
		out[i] = byte('a' + i%26)
	}
	if len(msg) > size {
		return []byte(msg)[:size]
	}
	return out
}

// Bank protocol: text requests on a paired channel.
//
//	xfer <from> <to> <amount>   move funds; reply "ok <serial>"
//	audit                       reply "total <sum> <serial>"
//	bal <acct>                  reply "bal <amount>"
//
// The server keeps balances in its KV heap, so every applied transfer is
// part of the synced state.

// XferReq formats a transfer request, padded to size (0 = minimal).
func XferReq(from, to, amount int, size int) []byte {
	msg := fmt.Sprintf("xfer %d %d %d", from, to, amount)
	if size <= 0 {
		return []byte(msg)
	}
	return Pad(msg, size)
}

// AuditReq formats an audit request.
func AuditReq() []byte { return []byte("audit") }

// BalReq formats a balance request.
func BalReq(acct int) []byte { return []byte(fmt.Sprintf("bal %d", acct)) }

// ParseXfer extracts a transfer from request fields; ok is false for other
// requests.
func ParseXfer(data []byte) (from, to, amount int, ok bool) {
	s := string(data)
	if !strings.HasPrefix(s, "xfer ") {
		return 0, 0, 0, false
	}
	fields := strings.Fields(s)
	if len(fields) < 4 {
		return 0, 0, 0, false
	}
	f, err1 := strconv.Atoi(fields[1])
	t, err2 := strconv.Atoi(fields[2])
	amtField := strings.TrimRight(fields[3], "abcdefghijklmnopqrstuvwxyz")
	a, err3 := strconv.Atoi(amtField)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, false
	}
	return f, t, a, true
}

// IsAudit reports whether the request is an audit.
func IsAudit(data []byte) bool { return strings.HasPrefix(string(data), "audit") }

// ParseBal extracts a balance query.
func ParseBal(data []byte) (acct int, ok bool) {
	s := string(data)
	if !strings.HasPrefix(s, "bal ") {
		return 0, false
	}
	fields := strings.Fields(s)
	if len(fields) < 2 {
		return 0, false
	}
	a, err := strconv.Atoi(strings.TrimRight(fields[1], "abcdefghijklmnopqrstuvwxyz"))
	if err != nil {
		return 0, false
	}
	return a, true
}

// TxnPlan is a deterministic transaction schedule for one teller.
type TxnPlan struct {
	Accounts int
	Txns     int
	Amount   int
	// PayloadSize pads requests to exercise message-size sweeps (0 =
	// minimal).
	PayloadSize int
	Seed        uint64
}

// Txn returns the i-th transfer of the plan.
func (tp TxnPlan) Txn(i int) (from, to, amount int) {
	r := NewRand(tp.Seed + uint64(i)*0x9E37)
	from = r.Intn(tp.Accounts)
	to = r.Intn(tp.Accounts)
	if to == from {
		to = (to + 1) % tp.Accounts
	}
	return from, to, tp.Amount
}

// Encode serializes a plan into an args string.
func (tp TxnPlan) Encode() []byte {
	return []byte(fmt.Sprintf("%d %d %d %d %d", tp.Accounts, tp.Txns, tp.Amount, tp.PayloadSize, tp.Seed))
}

// DecodeTxnPlan parses an args string produced by Encode.
func DecodeTxnPlan(args []byte) (TxnPlan, error) {
	var tp TxnPlan
	_, err := fmt.Sscanf(string(args), "%d %d %d %d %d",
		&tp.Accounts, &tp.Txns, &tp.Amount, &tp.PayloadSize, &tp.Seed)
	if err != nil {
		return TxnPlan{}, fmt.Errorf("workload: bad plan %q: %v", args, err)
	}
	return tp, nil
}
