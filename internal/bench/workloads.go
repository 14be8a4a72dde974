package bench

// The bitc workload programs the experiments execute. They are the kinds of
// kernels the paper's audience writes: arithmetic recursion, buffer sweeps,
// record traversals, and sorting — each parameterised by an entry function
// taking the problem size.

const srcFib = `
(define (fib (n int64)) int64
  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(define (entry (n int64)) int64 (fib n))
`

const srcVecSum = `
(define (entry (n int64)) int64
  (let ((v (make-vector n 0)))
    (dotimes (i n) (vector-set! v i (* i 3)))
    (let ((mutable acc 0))
      (dotimes (i n) (set! acc (+ acc (vector-ref v i))))
      acc)))
`

const srcStructWalk = `
(defstruct node (value int64) (weight int64))
(define (entry (n int64)) int64
  (let ((v (make-vector n (make node :value 0 :weight 0))))
    (dotimes (i n)
      (vector-set! v i (make node :value i :weight (* i 2))))
    (let ((mutable acc 0))
      (dotimes (i n)
        (let ((nd (vector-ref v i)))
          (set! acc (+ acc (+ (field nd value) (field nd weight))))))
      acc)))
`

const srcSort = `
(define (entry (n int64)) int64
  (let ((v (make-vector n 0)))
    (let ((mutable seed 12345))
      (dotimes (i n)
        (set! seed (mod (+ (* seed 1103515245) 12345) 2147483648))
        (vector-set! v i seed)))
    ; insertion sort: quadratic but branch+move heavy, like kernel code paths
    (let ((mutable i 1))
      (while (< i n)
        (let ((key (vector-ref v i)) (mutable j (- i 1)) (mutable done #f))
          (while (and (not done) (>= j 0))
            (if (> (vector-ref v j) key)
                (begin
                  (vector-set! v (+ j 1) (vector-ref v j))
                  (set! j (- j 1)))
                (set! done #t)))
          (vector-set! v (+ j 1) key))
        (set! i (+ i 1))))
    (vector-ref v (- n 1))))
`

// KernelSource returns the bitc source of a named E1 kernel ("fib",
// "vector-sum", "struct-walk", "insertion-sort"). Tests outside the package
// use it to pin dispatch listings and run differential executions against
// the exact programs the benchmarks measure; each kernel's entry function
// is `entry`, taking the problem size.
func KernelSource(name string) (string, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w.src, true
		}
	}
	return "", false
}

// KernelNames lists the E1 kernels in benchmark order.
func KernelNames() []string {
	ws := workloads()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return names
}

// workload pairs a name with source and a size per scale unit.
type workload struct {
	name string
	src  string
	arg  func(scale int) int64
}

func workloads() []workload {
	return []workload{
		{"fib", srcFib, func(s int) int64 { return int64(18 + min(s, 6)) }},
		{"vector-sum", srcVecSum, func(s int) int64 { return int64(20000 * s) }},
		{"struct-walk", srcStructWalk, func(s int) int64 { return int64(8000 * s) }},
		{"insertion-sort", srcSort, func(s int) int64 { return int64(300 * s) }},
	}
}

// Packet-shaped records for the layout experiments (E3/E7).
const srcPacketStructs = `
(defstruct header-packed :packed
  (version (bitfield uint8 4))
  (ihl (bitfield uint8 4))
  (tos uint8)
  (length uint16)
  (id uint16)
  (flags (bitfield uint16 3))
  (frag (bitfield uint16 13))
  (ttl uint8)
  (proto uint8)
  (checksum uint16)
  (src uint32)
  (dst uint32))
(defstruct header-natural
  (version uint8)
  (ihl uint8)
  (tos uint8)
  (length uint16)
  (id uint16)
  (flags uint8)
  (frag uint16)
  (ttl uint8)
  (proto uint8)
  (checksum uint16)
  (src uint32)
  (dst uint32))
(define (entry (n int64)) int64 n)
`

// The bank programs for E8 (the course slides' composability example).
func bankSrc(sync string, transfers int64) string {
	body := map[string]string{
		"none": `
  (let ((x (field a1 bal)))
    (yield)
    (set-field! a1 bal (- x 1))
    (set-field! a2 bal (+ (field a2 bal) 1)))`,
		"coarse": `
  (with-lock bank
    (set-field! a1 bal (- (field a1 bal) 1))
    (set-field! a2 bal (+ (field a2 bal) 1)))`,
		"stm": `
  (atomic
    (set-field! a1 bal (- (field a1 bal) 1))
    (set-field! a2 bal (+ (field a2 bal) 1)))`,
	}[sync]

	// The observer uses the same discipline as the transfers: the lockset
	// analysis (correctly) has no notion of join-ordering, so an unguarded
	// read after join would be flagged; guarding it is also simply the
	// honest way to write the observer.
	total := map[string]string{
		"none":   `(+ (field a1 bal) (field a2 bal))`,
		"coarse": `(with-lock bank (+ (field a1 bal) (field a2 bal)))`,
		"stm":    `(atomic (+ (field a1 bal) (field a2 bal)))`,
	}[sync]

	return `
(defstruct account (bal int64))
(define a1 account (make account :bal 100000))
(define a2 account (make account :bal 0))
(define (transfer (n int64)) unit
  (dotimes (i n)` + body + `))
(define (total) int64 ` + total + `)
(define (entry (n int64)) int64
  (let ((t1 (spawn (transfer n))) (t2 (spawn (transfer n))))
    (join t1) (join t2)
    (total)))
`
}
