package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ProbeOrder statically verifies the obs ordering contract that PR 4's
// runtime pin (TestEventOrderCanonical) and the differential oracle
// depend on: within one access, events appear as
//
//	[Enqueue → Issue →] Access → outcome (Hit|Miss) → Evict → links
//	(Promote/Demote) → Place [→ Swap] [→ Inval...]
//
// on every control-flow path. The analyzer abstractly interprets each
// function body, tracking the set of possibly-last-emitted kinds
// through branches, loops (to fixpoint), and same-package helper calls
// (via first/last emission summaries), and reports any emission — or
// helper call — that can follow a higher-ranked one. Two deliberate
// relaxations encode the contract's real shape: a completed access
// (any emission) may be followed by a new Access (batched loops), and
// Place may be followed by the next level's outcome (uca.Hierarchy
// applies the order per level). A function that emits Access directly
// must emit it before anything else (Issue excepted: an inline queue
// may grant, then access).
//
// The CMP queue-side kinds bracket the window: Enqueue must be
// directly followed by Issue, Issue by the organization's Access, and
// Inval (coherence shoot-down) may appear only after the outcome. The
// organization's own emissions happen behind dynamic dispatch — the
// analyzer gives calls to memsys.LowerLevel.Access and memsys.AccessMany
// (the batch loop, or the BatchAccessor method) a synthetic whole-window
// summary so queue code that emits around such a call is still checked.
//
// Probe emissions are recognized as p.Emit(obs.Ctor(...)) where Emit is
// the obs.Probe interface method; an `x != nil`-guarded block that
// emits is assumed taken, since probe nil-ness is uniform across a run
// and the nil fast path emits nothing at all.
var ProbeOrder = &Analyzer{
	Name: "probeorder",
	Doc: "verify obs emissions follow the pinned Enqueue → Issue → Access → " +
		"outcome → Evict → links → Place → Inval order on every control-flow path",
	Run: runProbeOrder,
}

// obsPkgPath is the import path of the observability layer whose
// Probe.Emit calls the analyzer tracks.
const obsPkgPath = "nurapid/internal/obs"

// memsysPkgPath is the import path whose LowerLevel.Access dynamic
// dispatch gets the synthetic whole-window summary.
const memsysPkgPath = "nurapid/internal/memsys"

// poKind enumerates the obs event constructors in pinned-order rank
// groups.
type poKind int

const (
	poAccess poKind = iota
	poHit
	poMiss
	poEvict
	poPromote
	poDemote
	poPlace
	poSwap
	poEnqueue
	poIssue
	poInval
	poBypass
	numPoKinds
)

// poStart is the state-mask bit for "nothing emitted yet on this path".
const poStart uint16 = 1 << numPoKinds

var poCtorKinds = map[string]poKind{
	"Access": poAccess, "Hit": poHit, "Miss": poMiss, "Evict": poEvict,
	"Promote": poPromote, "DemoteLink": poDemote, "Place": poPlace,
	"SwapBacklog": poSwap,
	"Enqueue":     poEnqueue, "Issue": poIssue, "Inval": poInval,
	"Bypass": poBypass,
}

var poNames = [numPoKinds]string{
	"Access", "Hit", "Miss", "Evict", "Promote", "DemoteLink", "Place", "SwapBacklog",
	"Enqueue", "Issue", "Inval", "Bypass",
}

// poRank maps kinds onto the pinned order's rank ladder: emissions of
// one access must be rank-non-decreasing. The queue-side kinds sit at
// the window's edges: Enqueue/Issue before the Access (rank 0, with
// exact-successor rules below), Inval after everything.
var poRank = [numPoKinds]int{
	poAccess:  0,
	poHit:     1,
	poMiss:    1,
	poEvict:   2,
	poPromote: 3,
	poDemote:  3,
	poPlace:   4,
	poSwap:    5,
	poEnqueue: 0,
	poIssue:   0,
	poInval:   6,
	// Bypass sits where a suppressed promotion's movement links would:
	// directly after the Hit outcome, before any trailing Inval.
	poBypass: 3,
}

// poAllowed reports whether next may directly follow prev within the
// event stream.
func poAllowed(prev, next poKind) bool {
	if prev == poEnqueue {
		// An enqueued request's only successor is its bank grant.
		return next == poIssue
	}
	if prev == poIssue {
		// A granted request goes straight into the organization.
		return next == poAccess
	}
	switch next {
	case poEnqueue:
		// A new queued access may begin after any completed window —
		// but never directly after a bare Access (outcome pending).
		return prev != poAccess
	case poIssue:
		return false // Issue only directly follows its own Enqueue
	case poInval:
		// Coherence shoot-downs trail the access's outcome: anything
		// rank >= 1 (another Inval included) may precede one.
		return poRank[prev] >= 1
	case poAccess:
		// A new access may begin after any completed emission — the
		// batched AccessMany loop does exactly that — but never directly
		// after a bare Access (its outcome is still pending).
		return prev != poAccess
	case poBypass:
		// A bypass is a suppressed promotion: it directly follows its
		// access's Hit outcome and nothing else.
		return prev == poHit
	}
	if prev == poInval {
		// Only a new access window may follow a shoot-down (handled by
		// the poAccess/poEnqueue cases above).
		return false
	}
	if prev == poBypass {
		// A bypass closes its access window like a completed movement:
		// only a new window or a trailing Inval (both handled above) may
		// follow it.
		return false
	}
	if prev == poPlace && poRank[next] == 1 {
		// A level's fill completed; a multi-level organization moves on
		// to the next level's outcome (uca.Hierarchy per-level order).
		return true
	}
	if poRank[next] < poRank[prev] {
		return false
	}
	if poRank[next] == 1 && poRank[prev] == 1 {
		return false // two outcomes for one access
	}
	return true
}

// poSummary is a function's emission summary: first is the mask of
// kinds it can emit while nothing has been emitted yet, last the mask
// of possibly-final kinds at exit (poStart set when some path emits
// nothing).
type poSummary struct {
	first uint16
	last  uint16
}

// poSite is one checkable location: a direct emission or a call to a
// same-package emitting helper. in accumulates every state mask that
// reached it across the fixpoint.
type poSite struct {
	call   *ast.CallExpr
	direct bool
	kind   poKind      // direct sites
	callee *types.Func // helper-call sites
	in     uint16
}

type poAnalysis struct {
	pass       *Pass
	decls      map[*types.Func]*ast.FuncDecl
	summaries  map[*types.Func]*poSummary
	inProgress map[*types.Func]bool
	sites      map[*ast.CallExpr]*poSite
	siteOrder  []*poSite
	// exitMask accumulates the state masks at the return points of the
	// function currently being summarized.
	exitMask uint16
	// breakFrames routes break statements to the innermost breakable
	// construct (loop or switch) during evaluation.
	breakFrames []*poFrame
}

type poFrame struct {
	breakMask    uint16
	continueMask uint16
	isLoop       bool
}

func runProbeOrder(pass *Pass) error {
	a := &poAnalysis{
		pass:       pass,
		decls:      make(map[*types.Func]*ast.FuncDecl),
		summaries:  make(map[*types.Func]*poSummary),
		inProgress: make(map[*types.Func]bool),
		sites:      make(map[*ast.CallExpr]*poSite),
	}
	var order []*types.Func
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				a.decls[fn] = fd
				order = append(order, fn)
			}
		}
	}
	for _, fn := range order {
		a.summarize(fn)
	}
	a.report()
	return nil
}

func (a *poAnalysis) summarize(fn *types.Func) *poSummary {
	if s, ok := a.summaries[fn]; ok {
		return s
	}
	if a.inProgress[fn] {
		// Recursive helper: assume it emits nothing. No emitting
		// function in this codebase recurses; the assumption only
		// weakens, never falsifies, downstream checks.
		return &poSummary{last: poStart}
	}
	a.inProgress[fn] = true
	defer delete(a.inProgress, fn)

	// Nested summarization (a helper call mid-evaluation) must not
	// leak exit states or break frames between functions.
	savedExit, savedFrames := a.exitMask, a.breakFrames
	a.exitMask, a.breakFrames = 0, nil

	s := &poSummary{}
	body := a.decls[fn].Body
	out := a.evalBlock(body, poStart) // implicit return
	s.last = out | a.exitMask
	a.exitMask, a.breakFrames = savedExit, savedFrames
	if s.last == 0 {
		s.last = poStart // e.g. body is one infinite loop with no emits
	}
	// first: kinds whose site saw the Start bit.
	for _, site := range a.siteOrder {
		if !a.inFunc(site, body) {
			continue
		}
		if site.in&poStart == 0 {
			continue
		}
		if site.direct {
			s.first |= 1 << uint(site.kind)
		} else if cs := a.summaries[site.callee]; cs != nil {
			s.first |= cs.first
		}
	}
	a.summaries[fn] = s
	return s
}

// inFunc reports whether site lies inside body.
func (a *poAnalysis) inFunc(site *poSite, body *ast.BlockStmt) bool {
	return site.call.Pos() >= body.Pos() && site.call.End() <= body.End()
}

func (a *poAnalysis) evalBlock(b *ast.BlockStmt, in uint16) uint16 {
	cur := in
	for _, s := range b.List {
		if cur == 0 {
			break // unreachable after return/break on all paths
		}
		cur = a.evalStmt(s, cur)
	}
	return cur
}

func (a *poAnalysis) evalStmt(s ast.Stmt, in uint16) uint16 {
	switch st := s.(type) {
	case nil:
		return in
	case *ast.BlockStmt:
		return a.evalBlock(st, in)
	case *ast.IfStmt:
		in = a.evalStmt(st.Init, in)
		in = a.evalCalls(st.Cond, in)
		bodyOut := a.evalBlock(st.Body, in)
		if st.Else != nil {
			return bodyOut | a.evalStmt(st.Else, in)
		}
		if isNilGuard(st.Cond) && a.containsEmit(st.Body) {
			// A probe guard: the nil fast path emits nothing, so only
			// the taken branch constrains ordering.
			return bodyOut
		}
		return bodyOut | in
	case *ast.ForStmt:
		in = a.evalStmt(st.Init, in)
		frame := &poFrame{isLoop: true}
		a.breakFrames = append(a.breakFrames, frame)
		cur := in
		var condOut uint16
		for {
			condOut = a.evalCalls(st.Cond, cur)
			bodyOut := a.evalBlock(st.Body, condOut)
			bodyOut |= frame.continueMask
			postOut := a.evalStmt(st.Post, bodyOut)
			next := cur | postOut
			if next == cur {
				break
			}
			cur = next
		}
		a.breakFrames = a.breakFrames[:len(a.breakFrames)-1]
		if st.Cond == nil {
			return frame.breakMask // for{}: only break exits
		}
		return condOut | frame.breakMask
	case *ast.RangeStmt:
		in = a.evalCalls(st.X, in)
		frame := &poFrame{isLoop: true}
		a.breakFrames = append(a.breakFrames, frame)
		cur := in
		for {
			bodyOut := a.evalBlock(st.Body, cur)
			next := cur | bodyOut | frame.continueMask
			if next == cur {
				break
			}
			cur = next
		}
		a.breakFrames = a.breakFrames[:len(a.breakFrames)-1]
		return cur | frame.breakMask
	case *ast.SwitchStmt:
		in = a.evalStmt(st.Init, in)
		in = a.evalCalls(st.Tag, in)
		return a.evalCases(st.Body, in, hasDefaultCase(st.Body))
	case *ast.TypeSwitchStmt:
		in = a.evalStmt(st.Init, in)
		in = a.evalCalls(st.Assign, in)
		return a.evalCases(st.Body, in, hasDefaultCase(st.Body))
	case *ast.SelectStmt:
		return a.evalCases(st.Body, in, true)
	case *ast.LabeledStmt:
		return a.evalStmt(st.Stmt, in)
	case *ast.ReturnStmt:
		out := in
		for _, r := range st.Results {
			out = a.evalCalls(r, out)
		}
		a.exitMask |= out
		return 0
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if f := a.innermostFrame(false); f != nil {
				f.breakMask |= in
			}
		case token.CONTINUE:
			if f := a.innermostFrame(true); f != nil {
				f.continueMask |= in
			}
		}
		return 0
	default:
		// Expression-bearing statements: evaluate calls in source order.
		return a.evalCalls(s, in)
	}
}

func (a *poAnalysis) innermostFrame(loopOnly bool) *poFrame {
	for i := len(a.breakFrames) - 1; i >= 0; i-- {
		if !loopOnly || a.breakFrames[i].isLoop {
			return a.breakFrames[i]
		}
	}
	return nil
}

func (a *poAnalysis) evalCases(body *ast.BlockStmt, in uint16, exhaustive bool) uint16 {
	frame := &poFrame{}
	a.breakFrames = append(a.breakFrames, frame)
	var out uint16
	for _, s := range body.List {
		cc, ok := s.(*ast.CaseClause)
		if !ok {
			if cc2, ok := s.(*ast.CommClause); ok {
				cur := in
				for _, bs := range cc2.Body {
					if cur == 0 {
						break
					}
					cur = a.evalStmt(bs, cur)
				}
				out |= cur
			}
			continue
		}
		cur := in
		for _, e := range cc.List {
			cur = a.evalCalls(e, cur)
		}
		for _, bs := range cc.Body {
			if cur == 0 {
				break
			}
			cur = a.evalStmt(bs, cur)
		}
		out |= cur
	}
	a.breakFrames = a.breakFrames[:len(a.breakFrames)-1]
	out |= frame.breakMask
	if !exhaustive {
		out |= in
	}
	return out
}

// evalCalls scans n (an expression or simple statement) for emission
// and same-package helper calls in source order, threading the state
// mask through them.
func (a *poAnalysis) evalCalls(n ast.Node, in uint16) uint16 {
	if n == nil {
		return in
	}
	cur := in
	ast.Inspect(n, func(nn ast.Node) bool {
		call, ok := nn.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, ok := a.emissionKind(call); ok {
			cur = a.applyEmission(call, kind, cur)
			return false // the constructor argument is part of the site
		}
		if fn := a.sameOrLocalCallee(call); fn != nil {
			cur = a.applyCall(call, fn, cur)
		} else if fn := a.lowerAccessCallee(call); fn != nil {
			cur = a.applyCall(call, fn, cur)
		}
		return true
	})
	return cur
}

// lowerAccessCallee recognizes dynamic dispatch into a cache
// organization — a call to memsys.LowerLevel.Access or memsys.AccessMany
// (the batch loop, or the BatchAccessor method) — and registers a
// synthetic summary for it: the callee emits one (or, batched, many)
// complete canonical access window(s), beginning with Access and
// ending in a completed-window kind. This keeps queue-side emitters
// (internal/cmp) checkable even though the organization behind the
// interface is invisible to a per-package pass.
func (a *poAnalysis) lowerAccessCallee(call *ast.CallExpr) *types.Func {
	fn := staticCallee(a.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != memsysPkgPath {
		return nil
	}
	if fn.Name() != "Access" && fn.Name() != "AccessMany" {
		return nil
	}
	if _, ok := a.summaries[fn]; !ok {
		a.summaries[fn] = &poSummary{
			first: 1 << uint(poAccess),
			last: 1<<uint(poHit) | 1<<uint(poMiss) | 1<<uint(poEvict) |
				1<<uint(poPromote) | 1<<uint(poDemote) | 1<<uint(poPlace) |
				1<<uint(poSwap) | 1<<uint(poBypass),
		}
	}
	return fn
}

// emissionKind recognizes p.Emit(obs.Ctor(...)) and returns the
// constructor's kind.
func (a *poAnalysis) emissionKind(call *ast.CallExpr) (poKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 {
		return 0, false
	}
	fn, ok := a.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Emit" || fn.Pkg() == nil || fn.Pkg().Path() != obsPkgPath {
		return 0, false
	}
	ctor, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if !ok {
		return 0, false
	}
	cfn := staticCallee(a.pass.Info, ctor)
	if cfn == nil || cfn.Pkg() == nil || cfn.Pkg().Path() != obsPkgPath {
		return 0, false
	}
	kind, ok := poCtorKinds[cfn.Name()]
	return kind, ok
}

// sameOrLocalCallee resolves a call to a function declared in this
// package, the only calls with emission summaries.
func (a *poAnalysis) sameOrLocalCallee(call *ast.CallExpr) *types.Func {
	fn := staticCallee(a.pass.Info, call)
	if fn == nil {
		return nil
	}
	if _, ok := a.decls[fn]; !ok {
		return nil
	}
	return fn
}

func (a *poAnalysis) site(call *ast.CallExpr, direct bool, kind poKind, callee *types.Func) *poSite {
	if s, ok := a.sites[call]; ok {
		return s
	}
	s := &poSite{call: call, direct: direct, kind: kind, callee: callee}
	a.sites[call] = s
	a.siteOrder = append(a.siteOrder, s)
	return s
}

func (a *poAnalysis) applyEmission(call *ast.CallExpr, kind poKind, in uint16) uint16 {
	a.site(call, true, kind, nil).in |= in
	return 1 << uint(kind)
}

func (a *poAnalysis) applyCall(call *ast.CallExpr, fn *types.Func, in uint16) uint16 {
	sum := a.summarize(fn)
	if sum.first == 0 && sum.last&^poStart == 0 {
		return in // emits nothing
	}
	a.site(call, false, 0, fn).in |= in
	out := sum.last &^ poStart
	if sum.last&poStart != 0 {
		out |= in // may emit nothing: prior states survive
	}
	return out
}

// report walks every recorded site and emits at most one diagnostic per
// site: the worst (prev, next) pair that violates the pinned order.
func (a *poAnalysis) report() {
	sort.Slice(a.siteOrder, func(i, j int) bool {
		return a.siteOrder[i].call.Pos() < a.siteOrder[j].call.Pos()
	})
	for _, s := range a.siteOrder {
		prevs := s.in &^ poStart
		if s.direct {
			if s.kind == poAccess && prevs&^(1<<uint(poIssue)) != 0 {
				// Issue is the one legal predecessor: an inline queue may
				// grant, then access.
				a.pass.Reportf(s.call.Pos(),
					"obs.Access emitted after obs.%s: Access must be the first emission of an access",
					poNames[worstKind(prevs&^(1<<uint(poIssue)))])
				continue
			}
			if bad := a.badPrevs(prevs, 1<<uint(s.kind)); bad != 0 {
				a.pass.Reportf(s.call.Pos(),
					"obs.%s emitted after obs.%s violates the pinned order Access → outcome → Evict → links → Place",
					poNames[s.kind], poNames[worstKind(bad)])
			}
			continue
		}
		sum := a.summaries[s.callee]
		if sum == nil {
			continue
		}
		if bad := a.badPrevs(prevs, sum.first); bad != 0 {
			a.pass.Reportf(s.call.Pos(),
				"call to %s can emit obs.%s after obs.%s, violating the pinned order Access → outcome → Evict → links → Place",
				s.callee.Name(), poNames[firstViolatedNext(bad, sum.first)], poNames[worstKind(bad)])
		}
	}
}

// badPrevs returns the subset of prevs that cannot precede at least one
// kind in nexts.
func (a *poAnalysis) badPrevs(prevs, nexts uint16) uint16 {
	var bad uint16
	for p := poKind(0); p < numPoKinds; p++ {
		if prevs&(1<<uint(p)) == 0 {
			continue
		}
		for n := poKind(0); n < numPoKinds; n++ {
			if nexts&(1<<uint(n)) != 0 && !poAllowed(p, n) {
				bad |= 1 << uint(p)
			}
		}
	}
	return bad
}

// firstViolatedNext picks the lowest next kind some bad prev cannot
// precede, for a deterministic message.
func firstViolatedNext(bad, nexts uint16) poKind {
	for n := poKind(0); n < numPoKinds; n++ {
		if nexts&(1<<uint(n)) == 0 {
			continue
		}
		for p := poKind(0); p < numPoKinds; p++ {
			if bad&(1<<uint(p)) != 0 && !poAllowed(p, n) {
				return n
			}
		}
	}
	return 0
}

// worstKind picks the highest-ranked kind in mask, for a deterministic
// message.
func worstKind(mask uint16) poKind {
	best := poKind(0)
	bestRank := -1
	for k := poKind(0); k < numPoKinds; k++ {
		if mask&(1<<uint(k)) != 0 && poRank[k] >= bestRank {
			best, bestRank = k, poRank[k]
		}
	}
	return best
}

// hasDefaultCase reports whether a switch body has a default clause.
func hasDefaultCase(body *ast.BlockStmt) bool {
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// isNilGuard matches `x != nil` (either operand order).
func isNilGuard(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	return isNilIdent(be.X) || isNilIdent(be.Y)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// containsEmit reports whether the block directly (or in nested
// statements) contains a probe emission.
func (a *poAnalysis) containsEmit(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := a.emissionKind(call); ok {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
