package analysis

import (
	"go/ast"
	"go/token"
)

// FloatFixed protects the bit-exactness of the fixed-point datapaths.
// internal/fixed models the FPGA's Q-format DSP arithmetic: every
// operation saturates in integer registers, and descriptors must be
// bit-compatible with the RTL. Introducing float64 arithmetic inside
// that package — or inside a file consuming it — silently reintroduces
// rounding behaviour the hardware does not have. Floats may only cross
// the boundary through Q.FromFloat / Q.ToFloat (and the documented
// float-modelled helpers below).
var FloatFixed = &Analyzer{
	Name: "floatfixed",
	Doc:  "forbid float arithmetic in fixed-point datapaths except at the Q.FromFloat/Q.ToFloat boundary",
	Run:  runFloatFixed,
}

const fixedPkgPath = "repro/internal/fixed"

// fixedBoundaryFuncs are the functions of internal/fixed that are
// allowed to perform float arithmetic, because they ARE the boundary:
//
//   - FromFloat / ToFloat / Eps / Quantize: the Q<->float64 converters.
//   - Atan2Bin: a float model of the hardware's bin comparisons. It
//     takes math.Atan2 of the integer components and floors the angle
//     into a bin, which can differ from exact comparisons only for a
//     vector within float rounding of a bin boundary (documented at
//     the definition).
var fixedBoundaryFuncs = map[string]bool{
	"FromFloat": true, "ToFloat": true, "Eps": true,
	"Quantize": true, "Atan2Bin": true,
}

// boundaryCallNames are method names through which float expressions
// may legally feed the fixed-point world from consumer code: the
// argument of q.FromFloat(expr) or q.MulFloat(raw, expr) is quantized
// on entry, so arithmetic inside it happens before the datapath.
var boundaryCallNames = map[string]bool{
	"FromFloat": true, "MulFloat": true, "Quantize": true,
}

func runFloatFixed(f *File) []Diagnostic {
	if f.IsTest {
		return nil
	}
	inFixed := f.Pkg == "internal/fixed"
	if !inFixed {
		importsFixed := false
		for _, p := range importsOf(f) {
			if p == fixedPkgPath {
				importsFixed = true
				break
			}
		}
		if !importsFixed {
			return nil
		}
	}

	var out []Diagnostic
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if inFixed && fixedBoundaryFuncs[fd.Name.Name] {
			continue
		}
		out = append(out, checkFloatArith(f, fd)...)
	}
	return out
}

// checkFloatArith reports the outermost float arithmetic expressions
// in one function body.
func checkFloatArith(f *File, fd *ast.FuncDecl) []Diagnostic {
	floats := collectFloatNames(fd)
	var out []Diagnostic
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		defer func() { stack = append(stack, n) }()
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if !isArithOp(e.Op) || !(isFloatExpr(e.X, floats) || isFloatExpr(e.Y, floats)) {
				return true
			}
			if floatArithSuppressed(stack, floats) {
				return true
			}
			out = append(out, f.Diag("floatfixed", e,
				"float arithmetic in fixed-point datapath; keep the computation in Q raw values or cross via Q.FromFloat/Q.ToFloat"))
		case *ast.AssignStmt:
			switch e.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				fl := false
				for _, x := range e.Lhs {
					fl = fl || isFloatExpr(x, floats)
				}
				for _, x := range e.Rhs {
					// A float-arith RHS reports on its own visit; do
					// not double-report the statement.
					if b, ok := x.(*ast.BinaryExpr); ok && isArithOp(b.Op) &&
						(isFloatExpr(b.X, floats) || isFloatExpr(b.Y, floats)) {
						fl = false
						break
					}
					fl = fl || isFloatExpr(x, floats)
				}
				if fl && !floatArithSuppressed(stack, floats) {
					out = append(out, f.Diag("floatfixed", e,
						"float compound assignment in fixed-point datapath; keep the computation in Q raw values or cross via Q.FromFloat/Q.ToFloat"))
				}
			}
		}
		return true
	})
	return out
}

func isArithOp(op token.Token) bool {
	return op == token.ADD || op == token.SUB || op == token.MUL || op == token.QUO
}

// floatArithSuppressed reports whether an ancestor already covers this
// expression: an enclosing float arithmetic BinaryExpr (report only
// the outermost) or an enclosing boundary call such as q.FromFloat(...)
// whose argument is quantized on entry.
func floatArithSuppressed(stack []ast.Node, floats map[string]bool) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.BinaryExpr:
			if isArithOp(a.Op) && (isFloatExpr(a.X, floats) || isFloatExpr(a.Y, floats)) {
				return true
			}
		case *ast.CallExpr:
			if sel, ok := a.Fun.(*ast.SelectorExpr); ok && boundaryCallNames[sel.Sel.Name] {
				return true
			}
		case ast.Stmt:
			return false
		}
	}
	return false
}

// collectFloatNames gathers identifiers that statically look like
// float values in fd: parameters, results and variables declared with
// an explicit float32/float64 (possibly slice-of) type, plus names
// initialized from an expression already known to be float. Two passes
// propagate through simple chains like a := b * 2.
func collectFloatNames(fd *ast.FuncDecl) map[string]bool {
	floats := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if !isFloatType(field.Type) {
				continue
			}
			for _, name := range field.Names {
				floats[name.Name] = true
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	addFields(fd.Type.Results)
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ValueSpec:
				if isFloatType(s.Type) {
					for _, name := range s.Names {
						floats[name.Name] = true
					}
				}
			case *ast.AssignStmt:
				if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && isFloatExpr(s.Rhs[i], floats) {
						floats[id.Name] = true
					}
				}
			case *ast.RangeStmt:
				if x, ok := s.X.(*ast.Ident); ok && floats[x.Name] {
					if v, ok := s.Value.(*ast.Ident); ok {
						floats[v.Name] = true
					}
				}
			case *ast.FuncType:
				// Nested function literal params.
				for _, field := range s.Params.List {
					if isFloatType(field.Type) {
						for _, name := range field.Names {
							floats[name.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	return floats
}

// isFloatType matches float32/float64 and (nested) slices and arrays
// of them.
func isFloatType(t ast.Expr) bool {
	switch e := t.(type) {
	case *ast.Ident:
		return e.Name == "float64" || e.Name == "float32"
	case *ast.ArrayType:
		return isFloatType(e.Elt)
	case *ast.StarExpr:
		return isFloatType(e.X)
	}
	return false
}

// isFloatExpr reports whether e statically looks like a float value:
// float literals, float32/float64 conversions, math.* functions and
// constants, identifiers collected as float, indexing into float
// slices, and composites thereof.
func isFloatExpr(e ast.Expr, floats map[string]bool) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Kind == token.FLOAT
	case *ast.Ident:
		return floats[x.Name]
	case *ast.ParenExpr:
		return isFloatExpr(x.X, floats)
	case *ast.UnaryExpr:
		return isFloatExpr(x.X, floats)
	case *ast.BinaryExpr:
		return isArithOp(x.Op) && (isFloatExpr(x.X, floats) || isFloatExpr(x.Y, floats))
	case *ast.IndexExpr:
		return isFloatExpr(x.X, floats)
	case *ast.CallExpr:
		switch fun := x.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "float64" || fun.Name == "float32"
		case *ast.SelectorExpr:
			if id, ok := fun.X.(*ast.Ident); ok && id.Name == "math" && id.Obj == nil {
				// math.* returns floats for everything this repo uses.
				return true
			}
			// q.ToFloat(...) re-enters float land.
			return fun.Sel.Name == "ToFloat"
		}
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && id.Name == "math" && id.Obj == nil {
			return true // math.Pi and friends
		}
	}
	return false
}
