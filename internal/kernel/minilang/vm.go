package minilang

import (
	"math"
	"strings"
)

// VM executes minilang by compiling each program to bytecode
// (compile.go, opt.go) and dispatching it on a value stack. It is
// observably equivalent to the tree-walking interpreter its tests
// compare it with — same host-call order, stdout, errors, and step
// accounting — but keeps numbers unboxed on the stack and in variable
// slots, resolves variables to slot indices at compile time, and folds
// constant subtrees, which is where the speedup over the tree-walker
// comes from.
type VM struct {
	rt

	// Persistent variable namespace: compiled chunks address slots by
	// index; names are interned here across Run calls.
	slotNames []string
	slotOf    map[string]int32
	slots     []cell

	stack  []cell
	iters  []iterFrame
	argBuf []Value

	// Compiled-chunk cache, keyed by program identity. Valid for the
	// VM's lifetime: slot indices are append-only, constants are
	// immutable, and limits are fixed at construction.
	chunks map[*Program]*chunk
}

// chunkCacheCap bounds the compiled-chunk cache; on overflow the whole
// cache is dropped (sessions re-running a handful of programs never
// hit this, and a one-shot recompile is cheap).
const chunkCacheCap = 64

// cell is an unboxed stack/slot value: ref == nil means the number
// num, otherwise ref holds the value (never a Number — unbox
// maintains that invariant so numeric fast paths stay exact).
type cell struct {
	num float64
	ref Value
}

// undefinedVal marks a slot that has been interned but never
// assigned; loading it is a NameError, as in the interpreter.
type undefinedVal struct{}

func (undefinedVal) valueKind() string { return "undefined" }

var undefinedMarker Value = undefinedVal{}

func unbox(v Value) cell {
	if n, ok := v.(Number); ok {
		return cell{num: float64(n)}
	}
	return cell{ref: v}
}

func box(c cell) Value {
	if c.ref == nil {
		return boxNum(c.num)
	}
	return c.ref
}

// smallNums pre-boxes the first few non-negative integers: boxing a
// float64 into the Value interface heap-allocates, and small integers
// (loop counters, range items, indices) dominate numeric traffic.
// Shared safely because Number is immutable and nothing compares
// Values by interface identity.
var smallNums = func() [512]Value {
	var a [512]Value
	for i := range a {
		a[i] = Number(i)
	}
	return a
}()

// smallNumList is the same prefix as a List, for bulk copy into range
// results. Never handed out directly — minilang lists are immutable by
// construction, but the returned value crosses into host code via
// Vars, so each range call still gets its own backing array.
var smallNumList = List(smallNums[:])

// boxNum boxes a number, reusing pre-boxed small integers. Negative
// zero is boxed fresh: it formats as "-0" and must not collapse into
// the cached +0.
func boxNum(f float64) Value {
	if i := int(f); float64(i) == f && i >= 0 && i < len(smallNums) && !(f == 0 && math.Signbit(f)) {
		return smallNums[i]
	}
	return Number(f)
}

func truthyCell(c cell) bool {
	if c.ref == nil {
		return c.num != 0
	}
	return Truthy(c.ref)
}

func boolCell(b bool) cell {
	if b {
		return cell{num: 1}
	}
	return cell{num: 0}
}

type iterFrame struct {
	items List
	idx   int
}

// NewVM returns a bytecode VM bound to host.
func NewVM(host Host, limits Limits) *VM {
	return &VM{
		rt: rt{
			host:   host,
			limits: limits.withDefaults(),
			stdout: &strings.Builder{},
		},
		slotOf: map[string]int32{},
	}
}

// slot interns a variable name, returning its index.
func (m *VM) slot(name string) int32 {
	if i, ok := m.slotOf[name]; ok {
		return i
	}
	i := int32(len(m.slots))
	m.slotOf[name] = i
	m.slotNames = append(m.slotNames, name)
	m.slots = append(m.slots, cell{ref: undefinedMarker})
	return i
}

// Vars returns a snapshot of the variable namespace.
func (m *VM) Vars() map[string]Value {
	out := make(map[string]Value, len(m.slots))
	for i, c := range m.slots {
		if c.ref == undefinedMarker {
			continue
		}
		out[m.slotNames[i]] = box(c)
	}
	return out
}

// Run parses, compiles, and executes src. The step budget applies per
// call; variables and stdout accumulate across calls.
func (m *VM) Run(src string) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	return m.RunProgram(prog)
}

// RunProgram compiles and executes an already parsed program without
// mutating it.
func (m *VM) RunProgram(prog *Program) error {
	m.steps = 0
	ch := m.chunks[prog]
	if ch == nil {
		ch = compileProgram(m, prog)
		if m.chunks == nil {
			m.chunks = make(map[*Program]*chunk)
		} else if len(m.chunks) >= chunkCacheCap {
			clear(m.chunks)
		}
		m.chunks[prog] = ch
	}
	return m.exec(ch)
}

func (m *VM) exec(ch *chunk) error {
	code := ch.code
	consts := ch.consts
	stack := m.stack[:0]
	slots := m.slots
	iters := m.iters[:0]
	// Step accounting lives in locals on the hot path; builtins also
	// tick, so the count is written back around every host call and at
	// exit.
	steps := m.steps
	maxSteps := m.limits.MaxSteps

	var runErr error
	pc := 0
loop:
	for pc < len(code) {
		in := &code[pc]
		if in.cost != 0 {
			steps += int(in.cost)
			if steps > maxSteps {
				runErr = rte(int(in.line), "ResourceError", "%v (%d)", ErrTooManySteps, maxSteps)
				break loop
			}
		}
		switch in.op {
		case opConst:
			stack = append(stack, consts[in.a])
		case opLoad:
			c := slots[in.a]
			if c.ref == undefinedMarker {
				runErr = rte(int(in.line), "NameError", "name %q is not defined", m.slotNames[in.a])
				break loop
			}
			stack = append(stack, c)
		case opStore:
			n := len(stack) - 1
			slots[in.a] = stack[n]
			stack = stack[:n]
		case opPop:
			stack = stack[:len(stack)-1]
		case opList:
			n := int(in.a)
			out := make(List, 0, n)
			for _, c := range stack[len(stack)-n:] {
				out = append(out, box(c))
			}
			stack = append(stack[:len(stack)-n], cell{ref: out})
		case opIndex:
			n := len(stack) - 1
			base, idx := stack[n-1], stack[n]
			stack = stack[:n]
			if l, ok := base.ref.(List); ok && idx.ref == nil {
				i := int(idx.num)
				if i < 0 {
					i += len(l)
				}
				if i < 0 || i >= len(l) {
					runErr = rte(int(in.line), "IndexError", "index %d out of range (len %d)", int(idx.num), len(l))
					break loop
				}
				stack[n-1] = unbox(l[i])
				break
			}
			v, err := indexValue(box(base), box(idx), int(in.line))
			if err != nil {
				runErr = err
				break loop
			}
			stack[n-1] = unbox(v)
		case opNot:
			n := len(stack) - 1
			stack[n] = boolCell(!truthyCell(stack[n]))
		case opBool:
			n := len(stack) - 1
			stack[n] = boolCell(truthyCell(stack[n]))
		case opAdd, opSub, opMul, opDiv, opMod, opEq, opNe, opLt, opGt, opLe, opGe:
			n := len(stack) - 1
			l, r := stack[n-1], stack[n]
			stack = stack[:n]
			if l.ref == nil && r.ref == nil {
				res, err := numBinOp(in.op, l.num, r.num, int(in.line))
				if err != nil {
					runErr = err
					break loop
				}
				stack[n-1] = res
				break
			}
			v, err := applyBin(opToks[in.op], box(l), box(r), int(in.line), m.limits.MaxValueBytes)
			if err != nil {
				runErr = err
				break loop
			}
			stack[n-1] = unbox(v)
		case opJump:
			pc = int(in.a)
			continue
		case opJumpIfFalse:
			n := len(stack) - 1
			c := stack[n]
			stack = stack[:n]
			if !truthyCell(c) {
				pc = int(in.a)
				continue
			}
		case opAndFalse:
			n := len(stack) - 1
			c := stack[n]
			if !truthyCell(c) {
				stack[n] = boolCell(false)
				pc = int(in.a)
				continue
			}
			stack = stack[:n]
		case opOrTrue:
			n := len(stack) - 1
			c := stack[n]
			if truthyCell(c) {
				stack[n] = boolCell(true)
				pc = int(in.a)
				continue
			}
			stack = stack[:n]
		case opCall:
			ref := &ch.calls[in.a]
			argc := int(in.b)
			args := m.argBuf[:0]
			for _, c := range stack[len(stack)-argc:] {
				args = append(args, box(c))
			}
			stack = stack[:len(stack)-argc]
			m.steps = steps
			v, err := invokeBuiltin(&m.rt, ref.name, ref.fn, int(in.line), args)
			steps = m.steps
			m.argBuf = args[:0]
			if err != nil {
				runErr = err
				break loop
			}
			stack = append(stack, unbox(v))
		case opIterPrep:
			n := len(stack) - 1
			v := stack[n]
			stack = stack[:n]
			var items List
			switch iv := v.ref.(type) {
			case List:
				items = iv
			case Str:
				// Iterating a string yields its lines.
				for _, line := range strings.Split(string(iv), "\n") {
					items = append(items, Str(line))
				}
			default:
				runErr = rte(int(in.line), "TypeError", "for loop needs a list, got %s", box(v).valueKind())
				break loop
			}
			iters = append(iters, iterFrame{items: items})
		case opIterNext:
			fr := &iters[len(iters)-1]
			if fr.idx >= len(fr.items) {
				iters = iters[:len(iters)-1]
				pc = int(in.a)
				continue
			}
			slots[in.b] = unbox(fr.items[fr.idx])
			fr.idx++
		case opIterPop:
			iters = iters[:len(iters)-1]
		case opBreakTop:
			// The interpreter reports an executed top-level break as a
			// SyntaxError with line 0 (the signal unwinds the whole
			// program before the line is known).
			runErr = rte(0, "SyntaxError", "break outside loop")
			break loop
		case opStep:
			// Charge-only; handled above.
		case opBinLL, opBinLC, opBinCL, opBinLLSt, opBinLCSt, opBinCLSt, opBinLLJf, opBinLCJf, opBinCLJf:
			// Fused [push][push][arith], optionally with a trailing
			// store or conditional branch. The opcode layout encodes
			// operand kinds (variant%3) and disposition (variant/3).
			// Charging is two-stage to match the interpreter's schedule
			// exactly: cost before the left operand read, cost2 between
			// the reads — so a step budget that expires between the
			// operands still expires there, and a NameError on the left
			// still wins over a limit charged for the right.
			variant := in.op - opBinLL
			var l, r cell
			if variant%3 == 2 { // CL: constant left
				l = consts[in.a]
			} else {
				l = slots[in.a]
				if l.ref == undefinedMarker {
					runErr = rte(int(in.line), "NameError", "name %q is not defined", m.slotNames[in.a])
					break loop
				}
			}
			if in.cost2 != 0 {
				steps += int(in.cost2)
				if steps > maxSteps {
					runErr = rte(int(in.line), "ResourceError", "%v (%d)", ErrTooManySteps, maxSteps)
					break loop
				}
			}
			if variant%3 == 1 { // LC: constant right
				r = consts[in.b]
			} else {
				r = slots[in.b]
				if r.ref == undefinedMarker {
					runErr = rte(int(in.line), "NameError", "name %q is not defined", m.slotNames[in.b])
					break loop
				}
			}
			var res cell
			if l.ref == nil && r.ref == nil {
				var err error
				res, err = numBinOp(in.sub, l.num, r.num, int(in.line))
				if err != nil {
					runErr = err
					break loop
				}
			} else {
				v, err := applyBin(opToks[in.sub], box(l), box(r), int(in.line), m.limits.MaxValueBytes)
				if err != nil {
					runErr = err
					break loop
				}
				res = unbox(v)
			}
			switch variant / 3 {
			case 0: // plain: push
				stack = append(stack, res)
			case 1: // St: store
				slots[in.c] = res
			default: // Jf: branch when falsy
				if !truthyCell(res) {
					pc = int(in.c)
					continue
				}
			}
		case opBinSt:
			// Fused [arith][store] with stack operands.
			n := len(stack) - 1
			l, r := stack[n-1], stack[n]
			stack = stack[:n-1]
			if l.ref == nil && r.ref == nil {
				res, err := numBinOp(in.sub, l.num, r.num, int(in.line))
				if err != nil {
					runErr = err
					break loop
				}
				slots[in.a] = res
				break
			}
			v, err := applyBin(opToks[in.sub], box(l), box(r), int(in.line), m.limits.MaxValueBytes)
			if err != nil {
				runErr = err
				break loop
			}
			slots[in.a] = unbox(v)
		case opMove:
			c := slots[in.a]
			if c.ref == undefinedMarker {
				runErr = rte(int(in.line), "NameError", "name %q is not defined", m.slotNames[in.a])
				break loop
			}
			slots[in.b] = c
		case opMove2:
			// Two fused slot-to-slot assignments; the second statement's
			// charge and errors report at line2.
			c1 := slots[in.a]
			if c1.ref == undefinedMarker {
				runErr = rte(int(in.line), "NameError", "name %q is not defined", m.slotNames[in.a])
				break loop
			}
			slots[in.b] = c1
			if in.cost2 != 0 {
				steps += int(in.cost2)
				if steps > maxSteps {
					runErr = rte(int(in.line2), "ResourceError", "%v (%d)", ErrTooManySteps, maxSteps)
					break loop
				}
			}
			c2 := slots[in.c]
			if c2.ref == undefinedMarker {
				runErr = rte(int(in.line2), "NameError", "name %q is not defined", m.slotNames[in.c])
				break loop
			}
			slots[int(in.sub)] = c2
		case opConstStr:
			slots[in.b] = consts[in.a]
		}
		pc++
	}
	m.steps = steps
	m.stack = stack[:0]
	m.iters = iters[:0]
	return runErr
}

// numBinOp is the number×number fast path. Comparison goes through
// the same three-way-compare construction as valueCmp so NaN
// semantics match the interpreter exactly.
func numBinOp(o op, l, r float64, line int) (cell, error) {
	switch o {
	case opAdd:
		return cell{num: l + r}, nil
	case opSub:
		return cell{num: l - r}, nil
	case opMul:
		return cell{num: l * r}, nil
	case opDiv:
		if r == 0 {
			return cell{}, rte(line, "ZeroDivisionError", "division by zero")
		}
		return cell{num: l / r}, nil
	case opMod:
		// Guard on the truncated divisor, mirroring applyBin.
		if int64(r) == 0 {
			return cell{}, rte(line, "ZeroDivisionError", "modulo by zero")
		}
		return cell{num: float64(int64(l) % int64(r))}, nil
	case opEq:
		return boolCell(l == r), nil
	case opNe:
		return boolCell(l != r), nil
	}
	var cmp int
	switch {
	case l < r:
		cmp = -1
	case l > r:
		cmp = 1
	}
	switch o {
	case opLt:
		return boolCell(cmp < 0), nil
	case opGt:
		return boolCell(cmp > 0), nil
	case opLe:
		return boolCell(cmp <= 0), nil
	}
	return boolCell(cmp >= 0), nil
}
