(** Compressed-sparse LU with a KLU-style symbolic/numeric split.

    MNA matrices are sparse, and every Monte Carlo sample of a circuit
    shares one sparsity pattern: only the numeric values change between
    samples, attempts, and Newton iterations.  This module therefore splits
    the work the way KLU does:

    - {!analyze} (cold, once per circuit topology) computes a maximum
      transversal (so vsource branch rows with structurally zero diagonals
      get a zero-free diagonal), a fill-reducing minimum-degree ordering on
      the symmetrized pattern, and the complete fill pattern of the L and U
      factors via the elimination tree.  The result is immutable and safe
      to share across domains.
    - {!factor} and {!solve_in_place} (hot, once per Newton iteration) do
      only numeric work, in place, on buffers preallocated by
      {!create_numeric} — no allocation, enforced by the [@vstat.hot] lint
      rule and the [Gc.minor_words] gate in test/test_lint.ml.

    Values are stamped by flat slot index ({!slot}, resolved once at engine
    compile time) so the assembly loop is a plain [float array] write.

    Pivoting is static: the pivot order is fixed by the symbolic analysis
    (topology only), never by sample values, so a sample's result cannot
    depend on which samples previously ran on a reused engine.  A pivot
    that fails the scale-relative test raises {!Lu.Singular} and the
    engine's gmin/source-stepping ladder takes over. *)

type symbolic
(** The shared, immutable result of symbolic analysis for one topology. *)

type numeric
(** Preallocated numeric workspace (values + factor) for one solver
    instance.  Not thread-safe; create one per engine/worker. *)

val analyze : n:int -> entries:(int * int) array -> symbolic
[@@vstat.allow "dead-export"] (* perfbench: the linalg layer probe *)
(** [analyze ~n ~entries] computes the symbolic factorization of the [n]x[n]
    pattern containing [entries] (0-based [(row, col)] pairs; duplicates
    allowed).  The diagonal need not be structurally present — a maximum
    transversal permutes rows to make it so.
    @raise Linalg_error.Numeric_error when the pattern is structurally
      singular (no zero-free diagonal exists).
    @raise Invalid_argument on out-of-range entries or [n < 0]. *)

val analyze_cached : n:int -> entries:(int * int) array -> symbolic
(** Like {!analyze}, but memoized on the deduplicated pattern in a
    process-wide, mutex-protected cache: recompiling the same circuit
    topology for every MC sample reuses one analysis.  The cache is reset
    when it exceeds a small bound. *)

val uncovered_column : n:int -> entries:(int * int) array -> int option
(** [Some c] exactly when {!analyze} rejects the pattern as structurally
    singular: [c] is the first column no maximum transversal covers (the
    one {!analyze}'s error names).  [None] for a pattern it accepts.
    @raise Invalid_argument as {!analyze}. *)

val nnz : symbolic -> int
[@@vstat.allow "dead-export"] (* perfbench: sizes the sparse LU probe *)
(** Stored entries in the combined L+U pattern, fill included. *)

val slot : symbolic -> row:int -> col:int -> int
(** Flat index into {!values} holding original-coordinate entry
    [(row, col)].  Every pair passed to {!analyze} has a slot (fill
    positions do too).  Resolve slots once at compile time; stamping is
    then [values.(slot) <- values.(slot) +. v].
    @raise Invalid_argument if [(row, col)] is outside the fill pattern. *)

val create_numeric : symbolic -> numeric
(** Allocate the value buffer and work vectors for one solver instance. *)

val symbolic_of : numeric -> symbolic
[@@vstat.allow "dead-export"] (* perfbench: sizes the sparse LU probe *)

val values : numeric -> float array
(** The stamp buffer, length {!nnz}, in symbolic slot order.  Overwritten
    by {!factor}; restamp (after {!clear}) before each refactorization. *)

val clear : numeric -> unit
[@@vstat.allow "dead-export"] (* test seam: sparse tests restamp with it *)
(** Zero the value buffer ([Array.fill]; allocation-free). *)

val factor : numeric -> unit
(** Numeric refactorization in place on the stamped values (up-looking,
    row by row, static pivot order).  Allocation-free.
    @raise Lu.Singular when a diagonal pivot is negligible relative to the
      stamped magnitude of its row ([column] reports the original index). *)

val solve_in_place : numeric -> float array -> unit
(** Solve [A x = b] in place on [b] (original coordinates), reusing the
    last {!factor}.  Allocation-free.
    @raise Invalid_argument on a mis-sized right-hand side. *)

val iter_entries : numeric -> f:(row:int -> col:int -> float -> unit) -> unit
(** Iterate the stored values in original coordinates (fill slots
    included), e.g. to scatter into a dense matrix.  Only meaningful
    between stamping and {!factor}. *)

val symbolic_analyses : unit -> int
[@@vstat.allow "dead-export"] (* perfbench: linalg.symbolic_analyses *)
(** Process-wide count of actual (non-cached) {!analyze} runs, for
    pattern-reuse tests. *)

val numeric_factorizations : unit -> int
[@@vstat.allow "dead-export"] (* test seam: pattern-reuse test counts it *)
(** Process-wide count of {!factor} calls. *)
