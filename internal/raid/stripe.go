package raid

import (
	"cmp"

	"raidii/internal/bytepath"
	"raidii/internal/sim"
)

// The stripe code.  Every parity level is the same (k data, m check) code
// with a different m: check column 0 is P (XOR of the data) and check column
// 1 is Q (the Reed-Solomon sum of gf.go), so any m lost columns of a stripe
// solve as a linear system.  One survivor-read-and-solve serves degraded
// reads, degraded writes and the rebuild, and one planner picks among exactly
// three write plans: full-stripe, delta read-modify-write over the m check
// columns, and reconstruct-write.

// column is one stripe column as one operation sees it.
type column struct {
	dev int      // device index
	on  Dev      // where the column lives for this operation; nil when it is lost
	rb  *rebuild // non-nil when on is the spare of a rebuild that has passed this stripe
	// heal is set when on is a device that missed this stripe, made live to
	// a write of the whole column (reclaim): the stripe leaves the device's
	// missed set when the write lands.
	heal bool
}

// stripeView is one operation's view of one stripe: where each column lives
// and which are lost, in role order.  It is decided once — for a write, after
// the write holds the stripe's writer lock — and then changes only when one
// of the operation's own commands fails, so no path sees a column live in one
// phase and lost in the next.
type stripeView struct {
	a      *Array
	stripe int64
	base   int64 // LBA of the stripe's units on every device
	cols   []column
}

// view builds an operation's view of a stripe.  A failed device's column is
// lost, and so is a column in its device's missed set — except to a write
// when a rebuild of that device has already passed this stripe: the column
// is then live on the spare, and the write must keep it current there or the
// swap-in would bring a stale column live.  Reads stay on the degraded path
// until the swap-in.
func (a *Array) view(stripe int64, forWrite bool) *stripeView {
	v := &stripeView{a: a, stripe: stripe, base: a.unitLBA(stripe), cols: make([]column, len(a.devs))}
	for role := range v.cols {
		c := column{dev: a.colDev(stripe, role)}
		if a.live(c.dev, stripe) {
			c.on = a.devs[c.dev]
		} else if rb := a.rebuilds[c.dev]; forWrite && rb != nil && rb.done(stripe) {
			c.on, c.rb = rb.spare, rb
		}
		v.cols[role] = c
	}
	return v
}

// lost reports whether a role's column is unavailable to this operation.
func (v *stripeView) lost(role int) bool { return v.cols[role].on == nil }

// covered returns the typed data-loss error when the columns lost to this
// operation lose the stripe.
func (v *stripeView) covered() error {
	if v.a.lost(v.lost) {
		return errLost(v.stripe)
	}
	return nil
}

// reclaim makes live again, to a write of every column in full, each column
// whose device is up but missed the stripe: the write brings the column
// current.
func (v *stripeView) reclaim() {
	for role := range v.cols {
		if c := &v.cols[role]; c.on == nil && !v.a.failed.Has(c.dev) {
			c.on, c.heal = v.a.devs[c.dev], true
		}
	}
}

// miss records that a write could not reach a role's column: the stripe
// joins the missed set of the column's device.
func (v *stripeView) miss(role int) { v.a.missed[v.cols[role].dev].Add(v.stripe) }

// drop handles an error from a command on a role's column: the column is
// lost to the rest of this operation, and the device is escalated — or, for
// another device's spare, its rebuild is failed so the stale spare never
// swaps in.
func (v *stripeView) drop(p *sim.Proc, role int, err error) {
	c := &v.cols[role]
	if c.rb == nil || v.a.onDevice(c.rb, c.dev) {
		v.a.escalate(p, c.dev, err)
	} else {
		v.a.stats.DeviceErrors++
		c.rb.fail(err)
	}
	c.on = nil
}

// read reads the len(dst) bytes at secOff of a role's column into dst; it
// reports false when the column had to be given up, now or by another of the
// operation's reads.
func (v *stripeView) read(p *sim.Proc, role int, secOff int64, dst []byte) bool {
	if v.lost(role) { // another read of this operation lost the column
		return false
	}
	v.a.stats.DiskReads++
	if err := bytepath.ReadInto(v.cols[role].on, p, v.base+secOff, dst); err != nil {
		v.drop(p, role, err)
		return false
	}
	return true
}

// write writes data at secOff of a role's column, unless the column is lost.
// A column the write does not reach, lost before or failing now, is missed.
// Skipping it is safe at redundant levels: the check columns already reflect
// the new data, so the lost column reconstructs to what the write carried.
// So is one that lands on another device's spare: the device itself lacks
// it, should the rebuild fail and the device come back.
func (v *stripeView) write(p *sim.Proc, role int, secOff int64, data []byte) {
	if v.lost(role) {
		v.miss(role)
		return
	}
	v.a.stats.DiskWrites++
	c := v.cols[role]
	switch err := c.on.Write(p, v.base+secOff, data); {
	case err != nil:
		v.drop(p, role, err)
		v.miss(role)
	case c.rb != nil && !v.a.onDevice(c.rb, c.dev):
		v.miss(role)
	case c.heal:
		v.a.missed[c.dev].Remove(v.stripe)
	}
}

// goWrite spawns a write of data at secOff of a role's column, unless the
// column is lost, and then misses it.
func (v *stripeView) goWrite(g *sim.Group, name string, role int, secOff int64, data []byte) {
	if v.lost(role) {
		v.miss(role)
		return
	}
	g.Go(name, func(q *sim.Proc) error {
		v.write(q, role, secOff, data)
		return nil
	})
}

// encode computes check column j over the data columns into dst: P through
// the XOR engine, Q through the GF(256) kernels.  A nil column counts as
// zeros.
func (a *Array) encode(p *sim.Proc, j int, dst []byte, data [][]byte) {
	if j == 1 {
		qParityInto(dst, data)
		return
	}
	a.xor.XORTo(p, dst, nonNil(data)...)
}

// fold accumulates the delta of data column pos into the matching range of
// check column j: XOR into P, scaled by the column's coefficient into Q.
func (a *Array) fold(p *sim.Proc, j int, check, delta []byte, pos int) {
	if j == 1 {
		gfMulSliceInto(check, delta, gfPow(pos))
		return
	}
	a.xor.XORInto(p, check, delta)
}

// nonNil returns the non-nil columns of cols, with room for one more.
func nonNil(cols [][]byte) [][]byte {
	out := make([][]byte, 0, len(cols)+1)
	for _, c := range cols {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// readSolve is the one survivor-read-and-solve: it reads every surviving
// column of the stripe over the n-byte range at secOff, in parallel and in
// device order, and solves for what is lost.  It returns the columns in role
// order.  want names the one column the caller is after — a data column, P
// or Q — which is solved straight into dst; want < 0 asks for the data
// columns, and then every data column is present.  More than m lost columns is
// unrecoverable: the stripe is lost.  A degraded read runs
// the same plan with the request's own rows riding on the survivor reads
// (readStripe).
func (v *stripeView) readSolve(p *sim.Proc, sc *scratch, secOff int64, n int, want int, dst []byte) ([][]byte, error) {
	defer p.Span("raid", "reconstruct")()
	pl := v.plan(sc, secOff, n, want, dst)
	g := p.Fork()
	for dev := range v.cols {
		if role := v.a.Role(v.stripe, dev); !v.lost(role) {
			pl.goRead(g, role, secOff, sc.col(n), nil)
		}
	}
	if err := g.Wait(p); err != nil {
		return nil, err
	}
	return pl.cols, pl.finish(p)
}

// solvePlan is one survivor-read-and-solve in flight.  Every surviving
// column is read over the plan's rows; when the solve goes through P — one
// lost data column with P alive, two lost data columns, or P itself wanted —
// each surviving data column and P is folded into an accumulator by the
// process that read it, as soon as its read lands, so the parity engine
// works while the slower survivors are still coming off the disks.  What is
// left when the last one lands is the final pass.
type solvePlan struct {
	v       *stripeView
	sc      *scratch
	secOff  int64 // the rows the solve needs: n bytes at secOff of every column
	n       int
	want    int
	dst     []byte
	cols    [][]byte // role order; a surviving column's rows once its read lands
	missing []int    // the data columns lost when the plan began
	acc     []byte   // P and the landed data columns folded together; nil when the solve does not go through P
	short   bool     // some read of the plan failed: more is missing than the plan began with
}

// plan starts a survivor-read-and-solve over the n bytes at secOff; see
// readSolve for want and dst.  The accumulator is the buffer that ends up
// holding the P path's result: P itself when P is wanted; D_x ^ D_y, a step
// on the way, when two data columns are lost and one is wanted; else the
// last lost data column.
func (v *stripeView) plan(sc *scratch, secOff int64, n int, want int, dst []byte) *solvePlan {
	k := v.a.dataDisks()
	pl := &solvePlan{v: v, sc: sc, secOff: secOff, n: n, want: want, dst: dst, cols: make([][]byte, len(v.cols))}
	for pos := 0; pos < k; pos++ {
		if v.lost(pos) {
			pl.missing = append(pl.missing, pos)
		}
	}
	switch m := pl.missing; {
	case want == k:
		pl.acc = dst
	case len(m) == 2 && want >= 0:
		pl.acc = sc.col(n)
	case len(m) > 0 && !v.lost(k):
		pl.acc = pl.buf(m[len(m)-1])
	}
	clear(pl.acc)
	return pl
}

// buf returns where a solved column goes: dst for the wanted one, scratch
// for any other.
func (pl *solvePlan) buf(role int) []byte {
	if role == pl.want {
		return pl.dst
	}
	return pl.sc.col(pl.n)
}

// goRead spawns the read of buf (which covers the plan's rows) at secOff of a
// role's column.  When it lands, landed (if not nil) runs first, then the
// plan's rows of buf join the solve.
func (pl *solvePlan) goRead(g *sim.Group, role int, secOff int64, buf []byte, landed func()) {
	g.Go("raid-reconstruct", func(q *sim.Proc) error {
		if !pl.v.read(q, role, secOff, buf) {
			pl.short = true
			return nil
		}
		if landed != nil {
			landed()
		}
		at := int(pl.secOff-secOff) * pl.v.a.secSize
		pl.land(q, role, buf[at:at+pl.n])
		return nil
	})
}

// land records a role's column and folds it into the accumulator when the
// solve goes through P: every data column and P, never Q.
func (pl *solvePlan) land(p *sim.Proc, role int, col []byte) {
	pl.cols[role] = col
	if pl.acc != nil && role <= pl.v.a.dataDisks() {
		pl.v.a.xor.Fold(p, pl.acc, col)
	}
}

// finish solves what is lost once every read has returned.  A plan whose
// reads all landed has folded its P path already and needs only the final
// pass; one that lost a column on the way falls back to the full solve over
// what survived.
func (pl *solvePlan) finish(p *sim.Proc) error {
	a := pl.v.a
	if a.lost(func(role int) bool { return pl.cols[role] == nil }) {
		return errLost(pl.v.stripe)
	}
	if pl.acc == nil || pl.short {
		a.solve(p, pl.sc, pl.cols, pl.n, pl.want, pl.dst)
		return nil
	}
	k := a.dataDisks()
	data := pl.cols[:k]
	p.Span("raid", "degraded")()
	switch missing := pl.missing; {
	case len(missing) == 2:
		// The accumulator is D_x ^ D_y.  The wanted column (or the first)
		// comes from it and Q; when the caller wants both, the first folds
		// in, which leaves the second.
		x, y := missing[0], missing[1]
		if pl.want == y {
			x, y = y, x
		}
		dx := pl.buf(x)
		qSolveTwo(dx, data, pl.cols[k+1], pl.acc, x, y)
		data[x] = dx
		if pl.want < 0 {
			a.xor.Fold(p, pl.acc, dx)
			data[y] = pl.acc
		}
	case len(missing) == 1 && pl.want == k:
		// P is wanted and lost with a data column: the data column comes
		// from Q, and folds in to complete P.
		x := missing[0]
		dx := pl.buf(x)
		qSolveOne(dx, data, pl.cols[k+1], x)
		a.xor.Fold(p, pl.acc, dx)
		data[x] = dx
	case len(missing) == 1:
		data[missing[0]] = pl.acc // P and the surviving data fold to D_x
	}
	a.xor.Result(p, pl.n)
	if pl.want == k+1 {
		a.encode(p, 1, pl.dst, data)
	}
	return nil
}

// solve fills in the missing data columns of cols (n-byte columns in role
// order, nil where lost; the caller has checked that no more than m are) and,
// when want names a check column, encodes it.  The column want names lands in
// dst, every other solved column in scratch.  Surviving check columns are left
// untouched: the scrub verifies them afterwards.  The cases, by what is lost:
// one data column with P alive (XOR through P, exactly the single-parity
// path), one data column with P gone too (divide the Q remainder by the
// column's coefficient), and two data columns (the 2x2 P+Q system); lost check
// columns need no solving, only re-encoding.
func (a *Array) solve(p *sim.Proc, sc *scratch, cols [][]byte, n int, want int, dst []byte) {
	k := a.dataDisks()
	data := cols[:k]
	buf := func(role int) []byte {
		if role == want {
			return dst
		}
		return sc.col(n)
	}
	var missing []int
	for pos, c := range data {
		if c == nil {
			missing = append(missing, pos)
		}
	}
	if len(missing) > 0 || want >= k {
		p.Span("raid", "degraded")()
	}
	switch len(missing) {
	case 1:
		x := missing[0]
		dx := buf(x)
		if pcol := cols[k]; pcol != nil {
			a.xor.XORTo(p, dx, append(nonNil(data), pcol)...)
		} else {
			qSolveOne(dx, data, cols[k+1], x)
		}
		data[x] = dx
	case 2:
		x, y := missing[0], missing[1]
		pxor := sc.col(n)
		copy(pxor, cols[k])
		for _, c := range nonNil(data) {
			a.xor.XORInto(p, pxor, c)
		}
		dx, dy := buf(x), buf(y)
		qSolveTwo(dx, data, cols[k+1], pxor, x, y)
		a.xor.XORTo(p, dy, pxor, dx)
		data[x], data[y] = dx, dy
	}
	if want >= k {
		a.encode(p, want-k, dst, data)
	}
}

// qSolveOne solves lost data column x from Q alone into dx:
// D_x = (Q ^ sum(g^i D_i, i != x)) / g^x.
func qSolveOne(dx []byte, data [][]byte, q []byte, x int) {
	qParityInto(dx, data)
	bytepath.XOR(dx, q)
	gfDivSlice(dx, gfPow(x))
}

// qSolveTwo solves lost data column x of the pair x, y into dx, given pxor =
// D_x ^ D_y from P.  P gives D_x ^ D_y, Q gives g^x D_x ^ g^y D_y; eliminate
// D_y and divide by (g^x ^ g^y).
func qSolveTwo(dx []byte, data [][]byte, q, pxor []byte, x, y int) {
	qParityInto(dx, data)
	bytepath.XOR(dx, q)
	// dx holds the Q remainder; D_x = (g^y pxor ^ dx) / denom.
	gy := gfPow(y)
	denom := gfPow(x) ^ gy
	gfDivSlice(dx, denom)
	gfMulSliceInto(dx, pxor, gfDiv(gy, denom))
}

// writeStripe applies one request's extents to one stripe under the stripe's
// writer lock.  Parity levels choose one of three plans: full-stripe when the
// extents cover every data column entirely; reconstruct-write when more than
// half the data columns are (at least partly) written, where reading the rest
// beats reading the old data; otherwise the delta read-modify-write — "each
// small write requires four disk accesses: reads of the old data and parity
// blocks and writes of the new data and parity blocks".
func (a *Array) writeStripe(p *sim.Proc, stripe int64, exts []extent, data []byte) error {
	if a.redundant() {
		lk := a.lock(stripe)
		lk.Acquire(p)
		defer lk.Release()
	}
	a.written.Add(stripe) // before the view: see "Rebuild and writes"
	v := a.view(stripe, true)
	full := a.row.checks > 0 && a.fullStripe(exts)
	if full {
		v.reclaim()
	}
	if err := v.covered(); err != nil {
		return err
	}
	var err error
	switch {
	case a.row.checks == 0:
		err = v.writeCopies(p, exts, data)
	case full:
		err = v.writeFull(p, exts, data)
	case 2*len(exts) > a.dataDisks():
		err = v.writeReconstruct(p, exts, data)
	default:
		err = v.writeRMW(p, exts, data)
	}
	return cmp.Or(err, v.covered())
}

// writeCopies is the plan of the rows with no check columns: each extent goes
// to its column, and at Level 1 to the column's mirror as well.
func (v *stripeView) writeCopies(p *sim.Proc, exts []extent, data []byte) error {
	a := v.a
	g := p.Fork()
	for _, ext := range exts {
		role := a.dataRole(ext.pos)
		v.goWrite(g, "w", role, int64(ext.secOff), a.chunk(data, ext))
		if a.row.mirrored {
			v.goWrite(g, "w", role+1, int64(ext.secOff), a.chunk(data, ext))
		}
	}
	return g.Wait(p)
}

// writeFull computes the check columns from the new data alone and writes all
// columns in parallel: "large write operations in disk arrays are efficient
// since they don't require the reading of old data or parity".
func (v *stripeView) writeFull(p *sim.Proc, exts []extent, data []byte) error {
	a := v.a
	defer p.Span("raid", "full-stripe-write")()
	a.stats.FullStripeWrites++
	k := a.dataDisks()
	cols := make([][]byte, k)
	for _, ext := range exts {
		cols[ext.pos] = a.chunk(data, ext)
	}
	sc := a.newScratch()
	defer sc.release()

	// Data writes start immediately; the check columns are computed while
	// they stream, and each is written as soon as it is ready.  The columns
	// go out in role order, data first, or, when parity costs nothing
	// (SoftXOR), in device order, as a client sends a stripe's fragments
	// to its servers.
	_, free := a.xor.(SoftXOR)
	g := p.Fork()
	for i := range v.cols {
		role := i
		if free {
			role = a.Role(v.stripe, i)
		}
		if role < k {
			v.goWrite(g, "w", role, 0, cols[role])
			continue
		}
		check := sc.unit()
		g.Go("wc", func(q *sim.Proc) error {
			a.encode(q, role-k, check, cols)
			v.write(q, role, 0, check)
			return nil
		})
	}
	return g.Wait(p)
}

// writeReconstruct handles a partial-stripe write by rebuilding the stripe's
// check columns from its data: read the data columns the request does not
// fully overwrite, overlay the new data, encode every check column over the
// whole unit, and write the new ranges plus the check columns in parallel.
// When one of those columns is lost it reads every surviving column instead
// and takes the data through the solve — the new data of a lost column lives
// on in the check columns.
func (v *stripeView) writeReconstruct(p *sim.Proc, exts []extent, data []byte) error {
	a := v.a
	defer p.Span("raid", "reconstruct-write")()
	a.stats.ReconstructWrites++
	k := a.dataDisks()
	sc := a.newScratch()
	defer sc.release()

	cols := make([][]byte, k)
	full := make([]bool, k) // fully covered by new data
	for _, ext := range exts {
		full[ext.pos] = ext.secOff == 0 && ext.secs == a.unitSecs
	}
	solve := false
	for pos := range full {
		solve = solve || !full[pos] && v.lost(pos)
	}
	if !solve {
		rg := p.Fork()
		for pos := range full {
			if full[pos] {
				continue
			}
			old := sc.unit()
			rg.Go("rw-read", func(q *sim.Proc) error {
				if v.read(q, pos, 0, old) {
					cols[pos] = old
				} else {
					solve = true // the read escalated its disk mid-write
				}
				return nil
			})
		}
		if err := rg.Wait(p); err != nil {
			return err
		}
	}
	if solve {
		all, err := v.readSolve(p, sc, 0, a.unitSecs*a.secSize, -1, nil)
		if err != nil {
			return err
		}
		cols = all[:k]
	}
	// Overlay the new data; the columns read are this operation's own
	// scratch, so partial extents patch them in place.
	for _, ext := range exts {
		chunk := a.chunk(data, ext)
		if full[ext.pos] {
			cols[ext.pos] = chunk
			continue
		}
		copy(cols[ext.pos][ext.secOff*a.secSize:], chunk)
	}
	checks := make([][]byte, a.row.checks)
	for j := range checks {
		checks[j] = sc.unit()
		a.encode(p, j, checks[j], cols)
	}

	wg := p.Fork()
	for _, ext := range exts {
		v.goWrite(wg, "rw-write", ext.pos, int64(ext.secOff), a.chunk(data, ext))
	}
	for j, check := range checks {
		v.goWrite(wg, "rw-check", k+j, 0, check)
	}
	return wg.Wait(p)
}

// writeRMW performs one combined read-modify-write for all extents of a
// stripe: old data (per extent) and the old check columns (over the union
// range) are read in parallel, each extent's delta is folded into every check
// column — XOR into P, scaled by the column's coefficient into Q — and new
// data and check columns are written in parallel: two parallel disk phases,
// 2+2m accesses for a one-extent write, rather than four serialized accesses
// per extent.  A lost data column's old contents are rebuilt in place through
// the solve; a lost check column is simply not maintained.
func (v *stripeView) writeRMW(p *sim.Proc, exts []extent, data []byte) error {
	a := v.a
	defer p.Span("raid", "rmw-write")()
	a.stats.SmallWrites++
	k, m := a.dataDisks(), a.row.checks

	// Union of sector ranges across extents.
	lo, hi := exts[0].secOff, exts[0].secOff+exts[0].secs
	for _, e := range exts[1:] {
		lo, hi = min(lo, e.secOff), max(hi, e.secOff+e.secs)
	}

	sc := a.newScratch()
	defer sc.release()
	oldD := make([][]byte, len(exts))
	oldC := make([][]byte, m)
	goRead := func(g *sim.Group, name string, role int, secOff int64, n int, into *[]byte) {
		if v.lost(role) {
			return
		}
		buf := sc.col(n)
		g.Go(name, func(q *sim.Proc) error {
			if v.read(q, role, secOff, buf) {
				*into = buf
			}
			return nil
		})
	}
	rg := p.Fork()
	for i, ext := range exts {
		goRead(rg, "rmw-rd", ext.pos, int64(ext.secOff), ext.secs*a.secSize, &oldD[i])
	}
	for j := range oldC {
		goRead(rg, "rmw-rc", k+j, int64(lo), (hi-lo)*a.secSize, &oldC[j])
	}
	if err := rg.Wait(p); err != nil {
		return err
	}

	// Fold every extent's delta into the surviving check columns.  With none
	// surviving there is nothing to maintain and the data writes are the
	// whole job.
	maintained := len(nonNil(oldC)) > 0
	for i := 0; i < len(exts) && maintained; i++ {
		ext := exts[i]
		newD := a.chunk(data, ext)
		off := (ext.secOff - lo) * a.secSize
		if v.lost(ext.pos) {
			// Lost column: rebuild its old contents from its peers.
			oldD[i] = sc.col(len(newD))
			if _, err := v.readSolve(p, sc, int64(ext.secOff), len(newD), ext.pos, oldD[i]); err != nil {
				return err
			}
		}
		delta := sc.col(len(newD))
		a.xor.XORTo(p, delta, oldD[i], newD)
		for j, check := range oldC {
			if check != nil {
				a.fold(p, j, check[off:off+len(delta)], delta, ext.pos)
			}
		}
	}

	wg := p.Fork()
	for _, ext := range exts {
		v.goWrite(wg, "rmw-wd", ext.pos, int64(ext.secOff), a.chunk(data, ext))
	}
	for j, check := range oldC {
		if check != nil {
			v.goWrite(wg, "rmw-wc", k+j, int64(lo), check)
		} else {
			v.miss(k + j) // lost before the reads or by one
		}
	}
	return wg.Wait(p)
}
