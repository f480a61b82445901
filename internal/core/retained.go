package core

import (
	"fmt"

	"github.com/xai-db/relativekeys/internal/feature"
)

// Retained is a context bounded to its newest limit rows: the retained
// inference context that cce.Window slides and the HTTP service caps with
// -retain. Once full, each Add retires the oldest row in place (one Remove,
// whose slot the arrival reuses), so the index never holds more than limit
// slots. A limit of 0 means unbounded: rows are only ever appended.
//
// Version is monotonic across the context's whole life, including Replace,
// which swaps in a freshly built context whose own stamp restarts: equal
// stamps imply identical rows, the invariant the service's explanation cache
// keys on (DESIGN.md §15).
//
// Retained is not safe for concurrent use; its owner serializes access.
type Retained struct {
	ctx   *Context
	limit int
	// ring holds the live rows' slots, oldest first from head; nil when
	// unbounded, where slot order is arrival order.
	ring []int
	head int
	// base carries Version past every stamp an earlier context handed out.
	base uint64
}

// NewRetained builds an empty retained context over schema keeping at most
// limit rows (0 = unbounded).
func NewRetained(schema *feature.Schema, limit int) (*Retained, error) {
	if limit < 0 {
		return nil, fmt.Errorf("core: retained-context limit %d must be ≥ 0", limit)
	}
	ctx, err := NewContextSized(schema, nil, limit)
	if err != nil {
		return nil, err
	}
	r := &Retained{ctx: ctx, limit: limit}
	if limit > 0 {
		r.ring = make([]int, limit)
	}
	return r, nil
}

// Add admits one row, retiring the oldest when the context is full. The row
// is validated before anything is retired, so a refused row leaves the
// context, and its Version, untouched.
func (r *Retained) Add(li feature.Labeled) error {
	if r.ring == nil {
		return r.ctx.Add(li)
	}
	n := r.ctx.Len()
	if n == r.limit {
		if err := ValidateLabeled(r.ctx.Schema, li); err != nil {
			return err
		}
		if err := r.ctx.Remove(r.ring[r.head]); err != nil {
			return err
		}
		r.head = (r.head + 1) % r.limit
		n--
	}
	slot, err := r.ctx.AddSlot(li)
	if err != nil {
		return err
	}
	r.ring[(r.head+n)%r.limit] = slot
	return nil
}

// Replace is ReplaceRows over a slice of rows. Every item is validated
// before any table is built, and the error is the first invalid item's.
func (r *Retained) Replace(items []feature.Labeled) error {
	rows := feature.NewRows(r.ctx.Schema, len(items))
	for _, li := range items {
		if err := ValidateLabeled(r.ctx.Schema, li); err != nil {
			return err
		}
		rows.Append(li)
	}
	r.replaceRows(rows)
	return nil
}

// ReplaceRows swaps in a fresh context holding the newest limit rows of the
// table, oldest first. Every row is validated, including those the limit
// drops; on an invalid row nothing changes, and the error names the first.
// Version moves past every earlier value even when the table is empty. The
// new context may take the table's storage as its own and later overwrite
// rows in it, so the caller must not read rows after its next Add.
func (r *Retained) ReplaceRows(rows *feature.Rows) error {
	if err := rows.Validate(r.ctx.Schema); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	r.replaceRows(rows)
	return nil
}

// replaceRows is ReplaceRows over a table already validated for the schema.
func (r *Retained) replaceRows(rows *feature.Rows) {
	if n := rows.Len(); r.limit > 0 && n > r.limit {
		// Copy the kept rows, so the dropped ones are not held for life.
		kept := feature.NewRows(r.ctx.Schema, r.limit)
		for i := n - r.limit; i < n; i++ {
			kept.AppendFrom(rows, i)
		}
		rows = kept
	}
	r.base += r.ctx.Version() + 1
	r.ctx = newContextRows(r.ctx.Schema, rows, r.limit)
	// A fresh context puts row i in slot i.
	r.head = 0
	if r.ring != nil {
		for i := 0; i < rows.Len(); i++ {
			r.ring[i] = i
		}
	}
}

// Items returns a copy of the live rows, oldest first.
func (r *Retained) Items() []feature.Labeled {
	if r.ring == nil {
		return r.ctx.LiveItems()
	}
	n := r.ctx.Len()
	out := make([]feature.Labeled, n)
	for i := range out {
		out[i] = r.ctx.Item(r.ring[(r.head+i)%r.limit])
	}
	return out
}

// Rows returns the live rows oldest first as a table no later Add, Remove
// or Replace writes to: the snapshot payload, safe to encode after the
// caller's lock is released. Unbounded, slot order is arrival order and
// slots are only ever appended, so it is a view of the context's own
// storage; bounded, it is a copy in ring order.
func (r *Retained) Rows() *feature.Rows {
	n := r.ctx.Len()
	if r.ring == nil {
		return r.ctx.rows.Slice(0, n)
	}
	out := feature.NewRows(r.ctx.Schema, n)
	for i := 0; i < n; i++ {
		out.AppendFrom(r.ctx.rows, r.ring[(r.head+i)%r.limit])
	}
	return out
}

// Context returns the current context for reads (solves, counts). Callers
// must not mutate it, and must not hold it across Replace, which swaps it.
func (r *Retained) Context() *Context { return r.ctx }

// Version is the content stamp: it increases with every row added or
// retired and with every Replace, and never otherwise.
func (r *Retained) Version() uint64 { return r.base + r.ctx.Version() }

// Len returns the number of live rows.
func (r *Retained) Len() int { return r.ctx.Len() }

// Limit returns the row bound; 0 means unbounded.
func (r *Retained) Limit() int { return r.limit }
