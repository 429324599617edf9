// Package durwrap flags unsigned wrap hazards in duration
// arithmetic: narrowing a duration-typed value into uint8/16/32 and
// subtracting duration-like unsigned quantities, in both cases
// without a dominating guard. This is the exact class of the
// dot11.CTSFor bug fixed in the hostile-channel PR: an 802.11
// Duration/ID field is a uint16 microsecond count, and
// `uint16(r.Duration - overhead)` wraps to ~65535 µs when the RTS
// carries less duration than the overhead — a stale reservation
// becomes a 65 ms channel blackout. The sanctioned shape subtracts in
// signed sim time and clamps before narrowing:
//
//	if need := a - b; need > 0 {
//	    dur = uint16(need / eventsim.Microsecond)
//	}
//
// It also flags the sibling pack hazard: shifting an unmasked value
// into a narrow unsigned wire field (`sc.Number<<4` packed into a
// uint16) silently drops whatever the shift pushes past the field
// width — the dot11.SequenceControl.Uint16 class. The sanctioned shape
// masks to the field width before shifting, mirroring the wrap the
// protocol defines: `(sc.Number&0xfff)<<4`.
//
// A guard is a dominating if (an enclosing condition, or an earlier
// early-exit or clamping if in the same block) that mentions the
// operand, or a clamping call inside the operand itself: builtin
// min/max, or a helper named clamp* or saturate*. The name is the
// whole sanction — `uint16(clampNAV(d))` passes, `uint16(capNAV(d))`
// does not, however capNAV bounds its result.
package durwrap

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math/bits"
	"regexp"

	"politewifi/internal/lint/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "durwrap",
	Doc: "flag uint8/16/32 narrowing of duration-typed values, unsigned subtraction of duration-like " +
		"quantities without a dominating guard (the dot11.CTSFor NAV-underflow class), and unmasked " +
		"shifts that can push bits past an unsigned wire field's width (the dot11 sequence-pack class)",
	Run: run,
}

// durTypeRE matches named types that represent instants or durations.
// eventsim.Time and time.Duration are matched structurally below;
// this catches project-local aliases like `type NAVMicros uint16`.
var durTypeRE = regexp.MustCompile(`(?i)(time|duration|micros|usec|nanos|nav|deadline|timeout)`)

// durExprRE matches identifiers and field names that carry durations
// even when their type is a bare integer — dot11 frame Duration/ID
// fields are plain uint16 microseconds on the wire.
var durExprRE = regexp.MustCompile(`(?i)^(dur|duration|nav|timeout|deadline|elapsed|remaining|sifs|difs|eifs|airtime|backoff|dwell)$|(?i)(duration|micros|usec|timeout|deadline)`)

func run(pass *analysis.Pass) error {
	nodes := []ast.Node{(*ast.CallExpr)(nil), (*ast.BinaryExpr)(nil)}
	pass.WithStack(nodes, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkConversion(pass, n, stack)
		case *ast.BinaryExpr:
			checkSub(pass, n, stack)
			checkShift(pass, n, stack)
		}
	})
	return nil
}

// checkConversion flags `uintN(d)` where d is duration-typed, N < 64,
// and no guard dominates the conversion.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	target, ok := pass.IsConversion(call)
	if !ok || len(call.Args) != 1 {
		return
	}
	bits, unsigned := analysis.IsUnsigned(target)
	if !unsigned || bits == 0 || bits >= 64 {
		return
	}
	op := call.Args[0]
	if !durationType(pass.TypeOf(op)) {
		return
	}
	// A constant operand is range-checked by the compiler at the
	// conversion; it cannot wrap at run time.
	if tv, ok := pass.TypesInfo.Types[op]; ok && tv.Value != nil {
		return
	}
	if guarded(pass, stack, op) {
		return
	}
	pass.Reportf(call.Pos(),
		"%s narrows duration-typed %s without a dominating guard and wraps on negative or oversized values (the dot11.CTSFor ~65535µs NAV underflow class); clamp in signed time first: if d := ...; d > 0 { %s(d) }",
		types.ExprString(call.Fun)+"(...)", types.ExprString(op), types.ExprString(call.Fun))
}

// checkSub flags `a - b` evaluated in an unsigned type when either
// operand is duration-like and no guard dominates the subtraction.
func checkSub(pass *analysis.Pass, bin *ast.BinaryExpr, stack []ast.Node) {
	if bin.Op != token.SUB {
		return
	}
	t := pass.TypeOf(bin)
	if t == nil {
		return
	}
	if _, unsigned := analysis.IsUnsigned(t); !unsigned {
		return
	}
	if !durationExpr(pass, bin.X) && !durationExpr(pass, bin.Y) {
		return
	}
	// Masked modular arithmetic ((a - b) & 0xfff on sequence numbers)
	// is intentional wraparound, not a hazard.
	if maskedParent(bin, stack) {
		return
	}
	if guarded(pass, stack, bin.X, bin.Y) {
		return
	}
	pass.Reportf(bin.Pos(),
		"unsigned subtraction %s on duration-like operands wraps below zero (the dot11.CTSFor NAV-underflow class); subtract in signed sim time (eventsim.Time) and clamp before narrowing, or guard with an explicit comparison",
		types.ExprString(bin))
}

// checkShift flags `x << c` evaluated in an unsigned type of width
// N < 64 when the shifted value can carry more than N−c significant
// bits — packing it into the field silently drops the excess, the
// dot11.SequenceControl.Uint16 unmasked-shift-before-pack class. A
// mask on the operand (`(x&0xfff)<<4`), a mask on the result, a value
// provably narrower than the room above the shift, or a dominating
// range guard all sanction the shift.
func checkShift(pass *analysis.Pass, bin *ast.BinaryExpr, stack []ast.Node) {
	if bin.Op != token.SHL {
		return
	}
	t := pass.TypeOf(bin)
	width, unsigned := analysis.IsUnsigned(t)
	if !unsigned || width == 0 || width >= 64 {
		return
	}
	// A constant shiftee is range-checked by the compiler in a constant
	// expression, and a constant bit (1 << n) is the idiomatic flag
	// shape — neither silently truncates a runtime value.
	if tv, ok := pass.TypesInfo.Types[bin.X]; ok && tv.Value != nil {
		return
	}
	shift, ok := constUint(pass, bin.Y)
	if !ok || shift == 0 || shift >= uint64(width) {
		return
	}
	if effectiveBits(pass, bin.X) <= width-int(shift) {
		return
	}
	if maskedParent(bin, stack) {
		return
	}
	if guarded(pass, stack, bin.X) {
		return
	}
	pass.Reportf(bin.Pos(),
		"%s packs an unmasked value into a %d-bit field: bits above %d are silently dropped by the shift (the dot11.SequenceControl.Uint16 unmasked-shift-before-pack class); mask to the field width first: (%s & %#x) << %d",
		types.ExprString(bin), width, width-int(shift),
		types.ExprString(bin.X), uint64(1)<<(width-int(shift))-1, shift)
}

// constUint evaluates e as a compile-time unsigned constant.
func constUint(pass *analysis.Pass, e ast.Expr) (uint64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Uint64Val(constant.ToInt(tv.Value))
	return v, exact
}

// effectiveBits bounds the number of significant bits e can carry at
// run time: constants by value, masks and modulo by their constant
// bound, conversions and typed expressions by width. 64 means unknown.
func effectiveBits(pass *analysis.Pass, e ast.Expr) int {
	if v, ok := constUint(pass, e); ok {
		return bits.Len64(v)
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return effectiveBits(pass, e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.AND:
			// x & mask: bounded by either side's bound.
			return min(effectiveBits(pass, e.X), effectiveBits(pass, e.Y))
		case token.SHR:
			if c, ok := constUint(pass, e.Y); ok {
				return max(effectiveBits(pass, e.X)-int(c), 0)
			}
		case token.REM:
			// x % m for constant m is bounded by m-1.
			if m, ok := constUint(pass, e.Y); ok && m > 0 {
				return bits.Len64(m - 1)
			}
		}
	case *ast.CallExpr:
		if target, ok := pass.IsConversion(e); ok && len(e.Args) == 1 {
			w := 64
			if cw, unsigned := analysis.IsUnsigned(target); unsigned && cw > 0 {
				w = cw
			}
			return min(w, effectiveBits(pass, e.Args[0]))
		}
	}
	if w, unsigned := analysis.IsUnsigned(pass.TypeOf(e)); unsigned && w > 0 {
		return w
	}
	return 64
}

// durationType reports whether t is a type that carries a duration:
// time.Duration, eventsim.Time, or a named integer whose name says
// time/duration.
func durationType(t types.Type) bool {
	if t == nil {
		return false
	}
	if analysis.NamedType(t, "time", "Duration") ||
		analysis.NamedType(t, "politewifi/internal/eventsim", "Time") {
		return true
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if b, ok := n.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
		return false
	}
	return durTypeRE.MatchString(n.Obj().Name())
}

// durationExpr reports whether e is duration-like by type or, for
// bare-integer wire fields, by name.
func durationExpr(pass *analysis.Pass, e ast.Expr) bool {
	if durationType(pass.TypeOf(e)) {
		return true
	}
	switch e := e.(type) {
	case *ast.Ident:
		return durExprRE.MatchString(e.Name)
	case *ast.SelectorExpr:
		return durExprRE.MatchString(e.Sel.Name)
	case *ast.ParenExpr:
		return durationExpr(pass, e.X)
	case *ast.BinaryExpr:
		return durationExpr(pass, e.X) || durationExpr(pass, e.Y)
	case *ast.CallExpr:
		if _, ok := pass.IsConversion(e); ok && len(e.Args) == 1 {
			return durationExpr(pass, e.Args[0])
		}
	}
	return false
}

// guarded reports whether a comparison involving one of the operand
// expressions' identifiers dominates the node at the top of stack:
// either an enclosing if whose condition mentions an operand, a
// preceding early-exit or clamping if in the same block, or a
// clamping min/max/clamp call inside the operand itself.
func guarded(pass *analysis.Pass, stack []ast.Node, operands ...ast.Expr) bool {
	names := make(map[string]bool)
	for _, op := range operands {
		collectNames(op, names)
		if containsClamp(pass, op) {
			return true
		}
	}
	if len(names) == 0 {
		// A constant-folded or literal-only operand can't be guarded
		// by name; treat untracked shapes as unguarded.
		return false
	}

	self := stack[len(stack)-1]
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			if mentionsAny(n.Cond, names) {
				return true
			}
		case *ast.ForStmt:
			if n.Cond != nil && mentionsAny(n.Cond, names) {
				return true
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if mentionsAny(e, names) {
					return true
				}
			}
		case *ast.BlockStmt:
			if precedingGuard(n, self, names) {
				return true
			}
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}

// precedingGuard scans the statements of block before the one
// containing self for an if that mentions an operand name and either
// exits early or assigns (clamps) the operand.
func precedingGuard(block *ast.BlockStmt, self ast.Node, names map[string]bool) bool {
	for _, stmt := range block.List {
		if stmt.Pos() >= self.Pos() {
			break
		}
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok || !mentionsAny(ifs.Cond, names) {
			continue
		}
		if terminates(ifs.Body) || assignsAny(ifs.Body, names) {
			return true
		}
	}
	return false
}

func terminates(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func assignsAny(body *ast.BlockStmt, names map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if mentionsAny(lhs, names) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if mentionsAny(n.X, names) {
				found = true
			}
		}
		return !found
	})
	return found
}

func collectNames(e ast.Expr, names map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			names[n.Name] = true
		case *ast.SelectorExpr:
			names[n.Sel.Name] = true
		}
		return true
	})
}

func mentionsAny(e ast.Expr, names map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if names[n.Name] {
				found = true
			}
		case *ast.SelectorExpr:
			if names[n.Sel.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// containsClamp reports whether the operand already passes through a
// clamping call: builtin min/max or anything named like clamp.
var clampRE = regexp.MustCompile(`(?i)^(clamp|saturate)`)

func containsClamp(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			if obj, ok := pass.TypesInfo.Uses[fn]; ok {
				if _, builtin := obj.(*types.Builtin); builtin && (fn.Name == "min" || fn.Name == "max") {
					found = true
				}
			}
			if clampRE.MatchString(fn.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if clampRE.MatchString(fn.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// maskedParent reports whether the subtraction's immediate parent is
// a bitwise-AND with a constant mask.
func maskedParent(bin *ast.BinaryExpr, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			// keep walking out through parentheses
		case *ast.BinaryExpr:
			return p.Op == token.AND
		default:
			return false
		}
	}
	return false
}
