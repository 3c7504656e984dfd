package minilang

// The bytecode compiler lowers a parsed Program to a flat instruction
// stream executed by VM (vm.go). The contract with the tree-walking
// interpreter is exact observable equivalence, including step
// accounting: every instruction carries a cost — the number of
// interpreter ticks the instruction stands for — charged before the
// instruction executes. The interpreter ticks once per statement
// executed and once per expression evaluated (parent before
// children), plus one tick per loop iteration after the body; the
// compiler reproduces that schedule by attaching each tick to the
// first instruction emitted at the same source line after the tick
// point, or to an explicit charge-only step instruction when no such
// instruction follows (branch merges, folded expressions in dead
// positions). Costs only ever batch ticks from a single source line,
// so a budget crossing anywhere inside a batch reports the same line
// the interpreter would.

type op uint8

const (
	opConst op = iota // push consts[a]
	opLoad            // push slots[a]; NameError if undefined
	opStore           // slots[a] = pop
	opPop             // drop top of stack
	opList            // pop a items, push List
	opIndex           // pop index, base; push base[index]
	opNot             // top = !truthy(top)
	opBool            // top = truthy(top) as 0/1
	opAdd             // binary operators: pop right, left; push result
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opGt
	opLe
	opGe
	opJump        // pc = a
	opJumpIfFalse // pop; if !truthy pc = a
	opAndFalse    // pop; if !truthy push 0 and pc = a (short-circuit and)
	opOrTrue      // pop; if truthy push 1 and pc = a (short-circuit or)
	opCall        // pop b args, invoke calls[a], push result
	opIterPrep    // pop iterable, push iterator frame
	opIterNext    // next item -> slots[b], or pop frame and pc = a
	opIterPop     // discard iterator frame (break out of for)
	opBreakTop    // break executed outside any loop: SyntaxError
	opStep        // charge-only: carries ticks with no other effect

	// Superinstructions, emitted by the peephole pass (opt.go). sub
	// holds the underlying arithmetic opcode; cost2 the ticks charged
	// between the left and right operand reads (see peephole for the
	// equivalence argument). The St variants store the result straight
	// into slots[c] instead of pushing it; the Jf variants branch to c
	// when it is falsy. The layout is positional: for each LL/LC/CL
	// base op, St is +3 and Jf is +6 — the peephole pass converts by
	// offset and the VM decodes operand kinds and disposition by
	// dividing out the variant.
	opBinLL    // push slots[a] <sub> slots[b]
	opBinLC    // push slots[a] <sub> consts[b]
	opBinCL    // push consts[a] <sub> slots[b]
	opBinLLSt  // slots[c] = slots[a] <sub> slots[b]
	opBinLCSt  // slots[c] = slots[a] <sub> consts[b]
	opBinCLSt  // slots[c] = consts[a] <sub> slots[b]
	opBinLLJf  // if !truthy(slots[a] <sub> slots[b]) pc = c
	opBinLCJf  // if !truthy(slots[a] <sub> consts[b]) pc = c
	opBinCLJf  // if !truthy(consts[a] <sub> slots[b]) pc = c
	opBinSt    // pop right, left; slots[a] = left <sub> right
	opMove     // slots[b] = slots[a]
	opMove2    // slots[b] = slots[a]; slots[sub] = slots[c] (dst2 < 256)
	opConstStr // slots[b] = consts[a]

	opCount // sentinel: number of opcodes
)

var binOps = map[tokKind]op{
	tokPlus:    opAdd,
	tokMinus:   opSub,
	tokStar:    opMul,
	tokSlash:   opDiv,
	tokPercent: opMod,
	tokEq:      opEq,
	tokNeq:     opNe,
	tokLt:      opLt,
	tokGt:      opGt,
	tokLe:      opLe,
	tokGe:      opGe,
}

// opToks maps binary opcodes back to the token the shared applyBin
// slow path expects.
var opToks = [opCount]tokKind{
	opAdd: tokPlus,
	opSub: tokMinus,
	opMul: tokStar,
	opDiv: tokSlash,
	opMod: tokPercent,
	opEq:  tokEq,
	opNe:  tokNeq,
	opLt:  tokLt,
	opGt:  tokGt,
	opLe:  tokLe,
	opGe:  tokGe,
}

// inst is one VM instruction. a and b are operands (jump target,
// slot, constant index, arg count). line is the source line for
// errors; cost is the number of interpreter ticks charged before the
// instruction executes (see the package note above). Fused
// superinstructions additionally carry the underlying arithmetic
// opcode in sub and a second tick batch in cost2, charged between
// their two operand reads.
type inst struct {
	op    op
	sub   op
	a     int32
	b     int32
	c     int32
	line  int32
	line2 int32 // move2 only: source line of the second statement
	cost  int32
	cost2 int32
}

// callRef is a builtin resolved at compile time. fn stays nil for
// unknown names: the interpreter raises NameError only when the call
// executes (after argument side effects), and so does the VM.
type callRef struct {
	name string
	fn   *builtin
}

// chunk is a compiled program.
type chunk struct {
	code   []inst
	consts []cell
	calls  []callRef
}

type loopCtx struct {
	isFor  bool
	breaks []int // opJump indices to patch to the loop's break target
}

type compiler struct {
	vm *VM
	ch *chunk

	// Pending ticks not yet attached to an instruction, and the line
	// they were incurred at.
	pending int32
	pendLn  int32

	loops    []loopCtx
	constIdx map[cell]int32
	callIdx  map[string]int32
}

// compileProgram lowers prog for execution on vm. Variable slots are
// resolved against (and appended to) the VM's persistent slot table,
// so compiled chunks from successive Run calls share a namespace. The
// input AST is never mutated: the folding pass copies on change.
func compileProgram(vm *VM, prog *Program) *chunk {
	c := &compiler{
		vm:       vm,
		ch:       &chunk{},
		constIdx: map[cell]int32{},
		callIdx:  map[string]int32{},
	}
	for _, s := range foldBlock(prog.stmts, vm.limits.MaxValueBytes) {
		c.stmt(s)
	}
	c.flush()
	peephole(c.ch)
	return c.ch
}

// charge records n interpreter ticks at line, to be attached to the
// next instruction emitted at that line.
func (c *compiler) charge(n int32, line int) {
	if c.pending > 0 && c.pendLn != int32(line) {
		c.flush()
	}
	c.pendLn = int32(line)
	c.pending += n
}

// flush materializes pending ticks as a charge-only step instruction.
func (c *compiler) flush() {
	if c.pending > 0 {
		c.ch.code = append(c.ch.code, inst{op: opStep, line: c.pendLn, cost: c.pending})
		c.pending = 0
	}
}

// emit appends an instruction, absorbing pending ticks into its cost
// when they were incurred at the same line (otherwise they flush to a
// step instruction first, preserving charge order).
func (c *compiler) emit(o op, a, b int32, line int) int {
	var cost int32
	if c.pending > 0 {
		if c.pendLn == int32(line) {
			cost = c.pending
			c.pending = 0
		} else {
			c.flush()
		}
	}
	c.ch.code = append(c.ch.code, inst{op: o, a: a, b: b, line: int32(line), cost: cost})
	return len(c.ch.code) - 1
}

// label flushes pending ticks and returns the next instruction index,
// safe to use as a jump target: nothing charged before the label can
// leak past it onto another control path.
func (c *compiler) label() int32 {
	c.flush()
	return int32(len(c.ch.code))
}

func (c *compiler) patch(idx int, target int32) { c.ch.code[idx].a = target }

func (c *compiler) constant(v cell) int32 {
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := int32(len(c.ch.consts))
	c.ch.consts = append(c.ch.consts, v)
	c.constIdx[v] = i
	return i
}

func (c *compiler) call(name string) int32 {
	if i, ok := c.callIdx[name]; ok {
		return i
	}
	i := int32(len(c.ch.calls))
	c.ch.calls = append(c.ch.calls, callRef{name: name, fn: builtins[name]})
	c.callIdx[name] = i
	return i
}

func (c *compiler) stmt(s stmtNode) {
	switch t := s.(type) {
	case *assignStmt:
		c.charge(1, t.ln)
		c.expr(t.expr)
		c.emit(opStore, c.vm.slot(t.name), 0, t.ln)
	case *exprStmt:
		c.charge(1, t.ln)
		if f, ok := t.expr.(*foldedExpr); ok {
			// Pure value in statement position: only the ticks matter.
			c.charge(f.cost, f.ln)
			return
		}
		c.expr(t.expr)
		c.emit(opPop, 0, 0, t.ln)
	case *breakStmt:
		c.charge(1, t.ln)
		if len(c.loops) == 0 {
			c.emit(opBreakTop, 0, 0, t.ln)
			return
		}
		lc := &c.loops[len(c.loops)-1]
		lc.breaks = append(lc.breaks, c.emit(opJump, -1, 0, t.ln))
	case *ifStmt:
		c.charge(1, t.ln)
		if f, ok := t.cond.(*foldedExpr); ok {
			// Constant condition: the untaken branch is dead code. The
			// condition's ticks are still charged once.
			c.charge(f.cost, f.ln)
			if truthyCell(f.val) {
				c.block(t.then)
			} else {
				c.block(t.elseBody)
			}
			return
		}
		c.expr(t.cond)
		jf := c.emit(opJumpIfFalse, -1, 0, t.ln)
		c.block(t.then)
		if len(t.elseBody) == 0 {
			c.patch(jf, c.label())
			return
		}
		jend := c.emit(opJump, -1, 0, t.ln)
		c.patch(jf, c.label())
		c.block(t.elseBody)
		c.patch(jend, c.label())
	case *whileStmt:
		c.charge(1, t.ln)
		f, constCond := t.cond.(*foldedExpr)
		if constCond && !truthyCell(f.val) {
			// Condition is constant-false: evaluated once, body never.
			c.charge(f.cost, f.ln)
			return
		}
		c.loops = append(c.loops, loopCtx{})
		head := c.label()
		if constCond {
			// Constant-true condition still costs its ticks every
			// iteration, matching the interpreter's re-evaluation.
			c.charge(f.cost, f.ln)
		} else {
			c.expr(t.cond)
			c.emit(opJumpIfFalse, -1, 0, t.ln)
		}
		condExit := len(c.ch.code) - 1 // only meaningful when !constCond
		c.block(t.body)
		// The interpreter ticks once per completed iteration at the
		// loop's line, before re-testing the condition.
		c.charge(1, t.ln)
		c.emit(opJump, head, 0, t.ln)
		end := c.label()
		if !constCond {
			c.patch(condExit, end)
		}
		for _, bidx := range c.loops[len(c.loops)-1].breaks {
			c.patch(bidx, end)
		}
		c.loops = c.loops[:len(c.loops)-1]
	case *forStmt:
		c.charge(1, t.ln)
		c.expr(t.iter)
		c.emit(opIterPrep, 0, 0, t.ln)
		c.loops = append(c.loops, loopCtx{isFor: true})
		head := c.label()
		next := c.emit(opIterNext, -1, c.vm.slot(t.vari), t.ln)
		c.block(t.body)
		c.charge(1, t.ln) // per-iteration tick, as for while
		c.emit(opJump, head, 0, t.ln)
		// break lands here to discard the iterator frame; natural
		// exhaustion pops it inside opIterNext and jumps past.
		brk := c.label()
		c.emit(opIterPop, 0, 0, t.ln)
		end := c.label()
		c.patch(next, end)
		for _, bidx := range c.loops[len(c.loops)-1].breaks {
			c.patch(bidx, brk)
		}
		c.loops = c.loops[:len(c.loops)-1]
	}
}

func (c *compiler) block(stmts []stmtNode) {
	for _, s := range stmts {
		c.stmt(s)
	}
}

func (c *compiler) expr(e exprNode) {
	switch t := e.(type) {
	case *foldedExpr:
		c.charge(t.cost, t.ln)
		c.emit(opConst, c.constant(t.val), 0, t.ln)
	case *litExpr:
		c.charge(1, t.ln)
		c.emit(opConst, c.constant(unbox(t.val)), 0, t.ln)
	case *varExpr:
		c.charge(1, t.ln)
		c.emit(opLoad, c.vm.slot(t.name), 0, t.ln)
	case *listExpr:
		c.charge(1, t.ln)
		for _, item := range t.items {
			c.expr(item)
		}
		c.emit(opList, int32(len(t.items)), 0, t.ln)
	case *notExpr:
		c.charge(1, t.ln)
		c.expr(t.inner)
		c.emit(opNot, 0, 0, t.ln)
	case *indexExpr:
		c.charge(1, t.ln)
		c.expr(t.base)
		c.expr(t.index)
		c.emit(opIndex, 0, 0, t.ln)
	case *binExpr:
		c.charge(1, t.ln)
		switch t.op {
		case tokKwAnd:
			c.expr(t.left)
			j := c.emit(opAndFalse, -1, 0, t.ln)
			c.expr(t.right)
			c.emit(opBool, 0, 0, t.ln)
			c.patch(j, c.label())
		case tokKwOr:
			c.expr(t.left)
			j := c.emit(opOrTrue, -1, 0, t.ln)
			c.expr(t.right)
			c.emit(opBool, 0, 0, t.ln)
			c.patch(j, c.label())
		default:
			c.expr(t.left)
			c.expr(t.right)
			c.emit(binOps[t.op], 0, 0, t.ln)
		}
	case *callExpr:
		c.charge(1, t.ln)
		for _, a := range t.args {
			c.expr(a)
		}
		c.emit(opCall, c.call(t.name), int32(len(t.args)), t.ln)
	}
}
