package minilang

import "strings"

// breakSignal unwinds out of the innermost loop.
type breakSignal struct{}

func (breakSignal) Error() string { return "break outside loop" }

// Interp executes programs against a Host by walking the AST. It is
// the reference engine: the bytecode VM is differentially tested
// against it (FuzzVMMatchesInterp) and must match its observable
// behavior exactly.
type Interp struct {
	rt
	vars map[string]Value
}

// NewInterp returns a tree-walking interpreter bound to host.
func NewInterp(host Host, limits Limits) *Interp {
	return &Interp{
		rt: rt{
			host:   host,
			limits: limits.withDefaults(),
			stdout: &strings.Builder{},
		},
		vars: map[string]Value{},
	}
}

// Vars exposes the variable environment (persistent across Run calls,
// like a kernel namespace across cells).
func (in *Interp) Vars() map[string]Value { return in.vars }

// Run parses and executes src. Accumulated stdout is retrieved with
// TakeStdout. The step budget applies per Run call.
func (in *Interp) Run(src string) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	return in.RunProgram(prog)
}

// RunProgram executes an already parsed program.
func (in *Interp) RunProgram(prog *Program) error {
	in.steps = 0
	err := in.execBlock(prog.stmts)
	if _, isBreak := err.(breakSignal); isBreak {
		return rte(0, "SyntaxError", "break outside loop")
	}
	return err
}

func (in *Interp) execBlock(stmts []stmtNode) error {
	for _, s := range stmts {
		if err := in.exec(s); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) exec(s stmtNode) error {
	if err := in.tick(s.line()); err != nil {
		return err
	}
	switch t := s.(type) {
	case *assignStmt:
		v, err := in.eval(t.expr)
		if err != nil {
			return err
		}
		in.vars[t.name] = v
		return nil
	case *exprStmt:
		_, err := in.eval(t.expr)
		return err
	case *breakStmt:
		return breakSignal{}
	case *ifStmt:
		cond, err := in.eval(t.cond)
		if err != nil {
			return err
		}
		if Truthy(cond) {
			return in.execBlock(t.then)
		}
		return in.execBlock(t.elseBody)
	case *whileStmt:
		for {
			cond, err := in.eval(t.cond)
			if err != nil {
				return err
			}
			if !Truthy(cond) {
				return nil
			}
			if err := in.execBlock(t.body); err != nil {
				if _, isBreak := err.(breakSignal); isBreak {
					return nil
				}
				return err
			}
			if err := in.tick(t.ln); err != nil {
				return err
			}
		}
	case *forStmt:
		iter, err := in.eval(t.iter)
		if err != nil {
			return err
		}
		list, ok := iter.(List)
		if !ok {
			if s, isStr := iter.(Str); isStr {
				// Iterating a string yields its lines.
				for _, line := range strings.Split(string(s), "\n") {
					list = append(list, Str(line))
				}
			} else {
				return rte(t.ln, "TypeError", "for loop needs a list, got %s", iter.valueKind())
			}
		}
		for _, item := range list {
			in.vars[t.vari] = item
			if err := in.execBlock(t.body); err != nil {
				if _, isBreak := err.(breakSignal); isBreak {
					return nil
				}
				return err
			}
			if err := in.tick(t.ln); err != nil {
				return err
			}
		}
		return nil
	}
	return rte(s.line(), "InternalError", "unknown statement %T", s)
}

func (in *Interp) eval(e exprNode) (Value, error) {
	if err := in.tick(e.line()); err != nil {
		return nil, err
	}
	switch t := e.(type) {
	case *litExpr:
		return t.val, nil
	case *varExpr:
		v, ok := in.vars[t.name]
		if !ok {
			return nil, rte(t.ln, "NameError", "name %q is not defined", t.name)
		}
		return v, nil
	case *listExpr:
		out := make(List, 0, len(t.items))
		for _, item := range t.items {
			v, err := in.eval(item)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case *notExpr:
		v, err := in.eval(t.inner)
		if err != nil {
			return nil, err
		}
		return boolVal(!Truthy(v)), nil
	case *indexExpr:
		base, err := in.eval(t.base)
		if err != nil {
			return nil, err
		}
		idxV, err := in.eval(t.index)
		if err != nil {
			return nil, err
		}
		return indexValue(base, idxV, t.ln)
	case *binExpr:
		return in.evalBin(t)
	case *callExpr:
		return in.call(t)
	}
	return nil, rte(e.line(), "InternalError", "unknown expression %T", e)
}

func (in *Interp) evalBin(t *binExpr) (Value, error) {
	// Short-circuit logicals first.
	if t.op == tokKwAnd || t.op == tokKwOr {
		left, err := in.eval(t.left)
		if err != nil {
			return nil, err
		}
		if t.op == tokKwAnd && !Truthy(left) {
			return boolVal(false), nil
		}
		if t.op == tokKwOr && Truthy(left) {
			return boolVal(true), nil
		}
		right, err := in.eval(t.right)
		if err != nil {
			return nil, err
		}
		return boolVal(Truthy(right)), nil
	}
	left, err := in.eval(t.left)
	if err != nil {
		return nil, err
	}
	right, err := in.eval(t.right)
	if err != nil {
		return nil, err
	}
	return applyBin(t.op, left, right, t.ln, in.limits.MaxValueBytes)
}

// call dispatches a builtin function.
func (in *Interp) call(t *callExpr) (Value, error) {
	args := make([]Value, len(t.args))
	for i, a := range t.args {
		v, err := in.eval(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return invokeBuiltin(&in.rt, t.name, builtins[t.name], t.ln, args)
}
