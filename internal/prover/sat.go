package prover

// The SAT core: a DPLL solver with unit propagation over clause lists.
// Literals are 1-based variable indices, negative for negation. The solver
// is deliberately simple — verification conditions from systems contracts
// have tiny boolean skeletons — but complete.

type clause []int

type satSolver struct {
	numVars int
	clauses []clause
}

func (s *satSolver) addClause(c clause) {
	s.clauses = append(s.clauses, c)
}

// solve returns a satisfying assignment (1-based; assignment[v] true/false)
// or nil if unsatisfiable.
func (s *satSolver) solve() []bool {
	assign := make([]int8, s.numVars+1) // 0 unassigned, 1 true, -1 false
	trail := make([]int, 0, s.numVars)

	setLit := func(lit int) {
		v := lit
		val := int8(1)
		if lit < 0 {
			v = -lit
			val = -1
		}
		assign[v] = val
		trail = append(trail, v)
	}

	// unitPropagate returns false on conflict.
	unitPropagate := func() bool {
		for changed := true; changed; {
			changed = false
			for _, c := range s.clauses {
				sat := false
				unassigned := 0
				var lastLit int
				for _, lit := range c {
					v := lit
					want := int8(1)
					if lit < 0 {
						v = -lit
						want = -1
					}
					switch assign[v] {
					case 0:
						unassigned++
						lastLit = lit
					case want:
						sat = true
					}
					if sat {
						break
					}
				}
				if sat {
					continue
				}
				if unassigned == 0 {
					return false // conflict
				}
				if unassigned == 1 {
					setLit(lastLit)
					changed = true
				}
			}
		}
		return true
	}

	var dpll func() bool
	dpll = func() bool {
		mark := len(trail)
		if !unitPropagate() {
			// undo
			for len(trail) > mark {
				v := trail[len(trail)-1]
				trail = trail[:len(trail)-1]
				assign[v] = 0
			}
			return false
		}
		// Pick an unassigned variable.
		pick := 0
		for v := 1; v <= s.numVars; v++ {
			if assign[v] == 0 {
				pick = v
				break
			}
		}
		if pick == 0 {
			return true // complete assignment
		}
		for _, phase := range []int{pick, -pick} {
			mark2 := len(trail)
			setLit(phase)
			if dpll() {
				return true
			}
			for len(trail) > mark2 {
				v := trail[len(trail)-1]
				trail = trail[:len(trail)-1]
				assign[v] = 0
			}
		}
		// Restore to entry state.
		for len(trail) > mark {
			v := trail[len(trail)-1]
			trail = trail[:len(trail)-1]
			assign[v] = 0
		}
		return false
	}

	if !dpll() {
		return nil
	}
	out := make([]bool, s.numVars+1)
	for v := 1; v <= s.numVars; v++ {
		out[v] = assign[v] == 1 // unassigned defaults to false
	}
	return out
}
