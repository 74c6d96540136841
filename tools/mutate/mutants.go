package main

// mutants are the committed mutants: each breaks one statement the tests
// hold the product to, and the tests named by its run pattern must then
// fail. Each comment says what the mutant breaks and why the tests notice.
var mutants = []mutant{
	{
		// The dominance-signature bucket wraps instead of clamping above its
		// range, so a cost of 2^44 or more (+Inf among them) lands in a low
		// bucket and the signature pre-test dismisses rows that answer.
		name: "sigwrap",
		file: "internal/pareto/signature.go",
		text: "min(max(b, 0), c.sigTop)",
		repl: "max(b, 0) & c.sigTop",
		pkgs: []string{"./internal/pareto"},
		run:  "TestIndexEdgeStreams|TestKernelMatchesGenericOracle|FuzzFlatInsert",
	},
	{
		// IRA's stopping condition ignores the bounds, so the refinement stops
		// as soon as the unbounded optimum is certified and the bounded answer
		// may be far from α-optimal (Theorem 6).
		name: "irabounds",
		file: "internal/core/algorithms.go",
		text: "alpha, alphaU float64) bool {\n",
		repl: "alpha, alphaU float64) bool {\n\tb = objective.NoBounds()\n",
		pkgs: []string{"./internal/proptest"},
		run:  "TestGuarantees",
	},
	{
		// Every level prunes at the set precision itself, so the losses of a
		// set's levels compound to αU^|S| and a sub-join's archive may cover
		// its Pareto set only beyond αᵢ^|S| (Theorem 3's induction).
		name: "rtalevel",
		file: "internal/core/engine.go",
		text: "{ return set.Root(n) }",
		repl: "{ return set }",
		pkgs: []string{"./internal/proptest"},
		run:  "TestRTACoversEverySubInstance",
	},
	{
		// Every level of every run prunes at precision 1.001, so EXA, asked
		// for the exact Pareto set, may drop a plan within a tenth of a
		// percent of another.
		name: "exaprec",
		file: "internal/core/engine.go",
		text: "{ return set.Root(n) }",
		repl: "{ return objective.UniformPrecision(1.001, objective.AllSet()) }",
		pkgs: []string{"./internal/proptest"},
		run:  "TestGuarantees",
	},
	{
		// Every level prunes at αU² instead of αU^(1/|Q|), so an RTA answer
		// may lie far beyond its α-cover.
		name: "rtasquare",
		file: "internal/core/engine.go",
		text: "{ return set.Root(n) }",
		repl: "{\n\tfor i, x := range set {\n\t\tset[i] = x * x\n\t}\n\treturn set\n}",
		pkgs: []string{"./internal/proptest"},
		run:  "TestGuarantees",
	},
	{
		// fullSet publishes every archive it closes to the shared memo, so a
		// set cut short by a timeout, or built on a degraded lower level, is
		// served to later runs as if it were complete.
		name: "memopublish",
		file: "internal/core/engine.go",
		text: "if complete && !e.timedOut.Load() && !e.cancelled.Load() {",
		repl: "if true {",
		pkgs: []string{"./internal/proptest"},
		run:  "TestDegradedRuns",
	},
	{
		// Every record body passes its checksum, so a bit flipped in a key or
		// a value is served as the record's contents instead of skipped.
		name: "nobodycrc",
		file: "internal/store/store.go",
		text: "if crc32.Checksum(body, castagnoli) != bodyCRC {",
		repl: "if false && crc32.Checksum(body, castagnoli) != bodyCRC {",
		pkgs: []string{"./internal/store"},
		run:  "TestRecoverBitFlippedBody|TestGetDetectsBitRotAfterOpen|FuzzStoreRecovery",
	},
	{
		// Sorting exactly two rows costs one SortFactor instead of
		// SortFactor·2·log2(2): a boundary no oracle query reaches.
		name: "sortwork",
		file: "internal/costmodel/costmodel.go",
		text: "if n < 2 {",
		repl: "if n <= 2 {",
		pkgs: []string{"./internal/costmodel"},
		run:  "TestSortWorkBoundary",
	},
	{
		// A sequential scan's CPU term divides by TupleWork instead of
		// multiplying: invisible where TupleWork is 1, so only a calibration
		// that sets it otherwise can tell.
		name: "scantuplework",
		file: "internal/costmodel/costmodel.go",
		text: "cpu := t.Rows * m.p.TupleWork",
		repl: "cpu := t.Rows / m.p.TupleWork",
		pkgs: []string{"./internal/costmodel"},
		run:  "TestCostingOracle",
	},
}
