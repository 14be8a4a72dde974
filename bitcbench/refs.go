package main

// refs holds the references outputs are checked against. Each is computed
// here, in Go, from the workload's definition, never by running bitc; the
// tests swap in a wrong one to show that a mismatch is counted.
type refs struct {
	// kernel returns a kernel's expected result for problem size n and
	// insertion-sort LCG seed lcg.
	kernel func(name string, n, lcg int64) int64
	// verdicts returns, per template, the verification conditions a
	// function instance must produce and which of them must fail.
	verdicts func() map[string]verdict
	// balance returns the total a serve run must conserve.
	balance func(users, initial int64) int64
}

var defaultRefs = refs{kernel: kernelRef, verdicts: templateVerdicts, balance: conservedBalance}

// kernelRef computes the E1 kernels' results in closed form or by direct
// simulation: fib(n); sum of 3i over i<n for vector-sum and struct-walk;
// the maximum of the LCG sequence, which sorting leaves last.
func kernelRef(name string, n, lcg int64) int64 {
	switch name {
	case "fib":
		a, b := int64(0), int64(1)
		for i := int64(0); i < n; i++ {
			a, b = b, a+b
		}
		return a
	case "vector-sum", "struct-walk":
		return 3 * n * (n - 1) / 2
	case "insertion-sort":
		best, x := int64(0), lcg
		for i := int64(0); i < n; i++ {
			x = (x*1103515245 + 12345) % 2147483648
			if i == 0 || x > best {
				best = x
			}
		}
		return best
	}
	return -1
}

// verdict is a template's known answer: the number of verification
// conditions per function, and the kinds of those that must fail (every
// other one must prove; none may fall outside the prover's fragment).
type verdict struct {
	VCs    int
	Failed []string
}

func conservedBalance(users, initial int64) int64 { return users * initial }
