package clock

import (
	"context"
	"time"
)

// owedKey is the key an owing context answers to with itself.
type owedKey struct{}

// owing is a context that carries modelled latency its goroutine has yet
// to sleep. It answers its own key, so owing costs one allocation and no
// lookup table.
type owing struct {
	context.Context
	owed time.Duration
}

// Value implements context.Context.
func (o *owing) Value(key any) any {
	if key == (owedKey{}) {
		return o
	}
	return o.Context.Value(key)
}

func owingOf(ctx context.Context) *owing {
	o, _ := ctx.Value(owedKey{}).(*owing)
	return o
}

// Owe returns a context that carries d of modelled latency not yet
// slept: the next wait that settles on it pays d in the same sleep as
// its own. A debt ctx already carries moves onto the new context, so the
// innermost owing context holds all of it. An owing context belongs to
// one goroutine, like the sleep it defers.
func Owe(ctx context.Context, d time.Duration) context.Context {
	if o := owingOf(ctx); o != nil {
		d += o.owed
		o.owed = 0
	}
	return &owing{Context: ctx, owed: d}
}

// Owed reports the latency ctx carries that has not been slept yet.
func Owed(ctx context.Context) time.Duration {
	if o := owingOf(ctx); o != nil {
		return o.owed
	}
	return 0
}

// Settle sleeps d on clk plus whatever ctx owes, in one Sleep, and clears
// the debt. On a context that owes nothing it is clk.Sleep(d).
func Settle(ctx context.Context, clk Clock, d time.Duration) {
	if o := owingOf(ctx); o != nil {
		d += o.owed
		o.owed = 0
	}
	clk.Sleep(d)
}
