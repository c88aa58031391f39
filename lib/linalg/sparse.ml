(* Sparse LU with a KLU-style symbolic/numeric split.  See sparse.mli for
   the contract; this comment records the algorithm choices.

   Symbolic phase (cold, once per topology):
   1. Maximum transversal (Duff MC21, augmenting paths over the bipartite
      column/row graph, diagonal-first cheap pass): produces a row
      permutation giving a zero-free diagonal.  MNA needs this — a vsource
      branch row has a structurally *zero* diagonal, and static diagonal
      pivoting would otherwise divide by gmin-or-nothing.
   2. Minimum-degree ordering on the symmetrized permuted pattern
      S = pattern(B) ∪ pattern(Bᵀ), B = Pr·A, with explicit clique fill and
      smallest-index tie-breaking (fully deterministic).
   3. Fill pattern of the Cholesky factor of S via the elimination tree
      (Liu's row-structure algorithm): row i of L = indices reached walking
      each lower-adjacent j up the etree until hitting an already-flagged
      node.  For a symmetric pattern this upper-bounds (and with diagonal
      pivoting, equals) the LU fill, and the resulting pattern is closed
      under the up-looking update, so the numeric phase never meets an
      unstored position.

   Numeric phase (hot, per Newton iteration): up-looking factorization row
   by row.  Row i is scattered from the CSR slots into a dense work vector
   (O(1) per flop, no index search), eliminated against the already-
   factored rows j < i in ascending order, pivot-checked, and gathered
   back.  The work vector never needs clearing: elimination only reads
   positions inside row i's pattern, which the scatter just wrote. *)

type symbolic = {
  n : int;
  perm : int array;      (* factored position -> original column *)
  perm_inv : int array;  (* original column  -> factored position *)
  orig_row : int array;  (* factored position -> original row (transversal) *)
  pos_of_row : int array;(* original row -> factored position *)
  row_ptr : int array;   (* CSR over the combined L+U pattern, length n+1 *)
  col_ind : int array;   (* permuted column indices, ascending per row *)
  diag_pos : int array;  (* flat index of the diagonal entry of each row *)
}

type numeric = {
  sym : symbolic;
  ax : float array;  (* nnz values: stamped, then factored in place *)
  w : float array;   (* dense scatter workspace, length n *)
  y : float array;   (* permuted RHS workspace, length n *)
}

let analyses = Atomic.make 0
let refactorizations = Atomic.make 0
let symbolic_analyses () = Atomic.get analyses
let numeric_factorizations () = Atomic.get refactorizations

let nnz sym = sym.row_ptr.(sym.n)

(* Matches Lu.singular_rtol in spirit: the sparse test is row-relative
   (static diagonal pivoting has no column search), using the *stamped*
   row magnitude as the scale so near-total cancellation is caught while a
   uniformly tiny but well-conditioned row (a gmin-only DC gate node)
   passes with ratio ~1. *)
let singular_rtol = 1e-14

(* --- small cold-path helpers ------------------------------------------- *)

let int_compare (a : int) b = compare a b

(* Deduplicated, sorted flat keys (row * n + col) of the entry list. *)
let dedup_keys ~n entries =
  let m = Array.length entries in
  let keys = Array.make (max m 1) 0 in
  for i = 0 to m - 1 do
    let r, c = entries.(i) in
    if r < 0 || r >= n || c < 0 || c >= n then
      invalid_arg "Sparse.analyze: entry out of range";
    keys.(i) <- (r * n) + c
  done;
  let keys = Array.sub keys 0 m in
  Array.sort int_compare keys;
  let uniq = ref 0 in
  for i = 0 to m - 1 do
    if i = 0 || keys.(i) <> keys.(i - 1) then begin
      keys.(!uniq) <- keys.(i);
      incr uniq
    end
  done;
  Array.sub keys 0 !uniq

(* Sorted union of two sorted int arrays, excluding [skip1] from [a] and
   [skip2] from [b]. *)
let union_excluding a ~skip1 b ~skip2 =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  let push v =
    if !k = 0 || out.(!k - 1) <> v then begin
      out.(!k) <- v;
      incr k
    end
  in
  while !i < la || !j < lb do
    if !i < la && a.(!i) = skip1 then incr i
    else if !j < lb && b.(!j) = skip2 then incr j
    else if !j >= lb || (!i < la && a.(!i) <= b.(!j)) then begin
      push a.(!i);
      incr i
    end
    else begin
      push b.(!j);
      incr j
    end
  done;
  Array.sub out 0 !k

(* --- maximum transversal (MC21) ---------------------------------------- *)

(* cols.(c) = sorted original rows with an entry in column c.  Returns
   [Ok colmatch] (column -> matched original row), or [Error c] for the
   first column no augmenting path covers. *)
let max_transversal ~n ~cols =
  let rowmatch = Array.make n (-1) in
  let colmatch = Array.make n (-1) in
  let contains arr v =
    let lo = ref 0 and hi = ref (Array.length arr) in
    while !hi - !lo > 0 do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length arr && arr.(!lo) = v
  in
  (* Cheap pass: take the diagonal wherever it exists. *)
  for c = 0 to n - 1 do
    if rowmatch.(c) = -1 && contains cols.(c) c then begin
      rowmatch.(c) <- c;
      colmatch.(c) <- c
    end
  done;
  let stamp = Array.make n (-1) in
  let rec augment c tag =
    let rows = cols.(c) in
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i < Array.length rows do
      let r = rows.(!i) in
      if stamp.(r) <> tag then begin
        stamp.(r) <- tag;
        if rowmatch.(r) = -1 || augment rowmatch.(r) tag then begin
          rowmatch.(r) <- c;
          colmatch.(c) <- r;
          found := true
        end
      end;
      incr i
    done;
    !found
  in
  let uncovered = ref (-1) in
  let c = ref 0 in
  while !uncovered < 0 && !c < n do
    if colmatch.(!c) = -1 && not (augment !c !c) then uncovered := !c;
    incr c
  done;
  if !uncovered < 0 then Ok colmatch else Error !uncovered

(* Column-wise sorted row lists of the deduplicated [keys]. *)
let column_rows ~n keys =
  let col_cnt = Array.make (max n 1) 0 in
  Array.iter (fun k -> col_cnt.(k mod n) <- col_cnt.(k mod n) + 1) keys;
  let cols = Array.init n (fun c -> Array.make col_cnt.(c) 0) in
  let col_fill = Array.make (max n 1) 0 in
  Array.iter
    (fun k ->
      let r = k / n and c = k mod n in
      cols.(c).(col_fill.(c)) <- r;
      col_fill.(c) <- col_fill.(c) + 1)
    keys;
  Array.iter (Array.sort int_compare) cols;
  cols

let uncovered_column ~n ~entries =
  match max_transversal ~n ~cols:(column_rows ~n (dedup_keys ~n entries)) with
  | Ok _ -> None
  | Error c -> Some c

(* --- minimum-degree ordering ------------------------------------------- *)

(* Greedy minimum degree with explicit clique fill on the symmetric
   adjacency [adj] (sorted arrays, no self-loops).  Invariant: adjacency
   lists contain only alive vertices (eliminating v rewrites exactly the
   lists that mention v), so Array.length is the live degree.  Ties break
   on the smallest vertex index, making the order fully deterministic. *)
let min_degree ~n ~adj =
  let adj = Array.map Array.copy adj in
  let alive = Array.make n true in
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let best = ref (-1) in
    let best_deg = ref max_int in
    for v = 0 to n - 1 do
      if alive.(v) && Array.length adj.(v) < !best_deg then begin
        best := v;
        best_deg := Array.length adj.(v)
      end
    done;
    let v = !best in
    order.(k) <- v;
    alive.(v) <- false;
    let nbrs = adj.(v) in
    Array.iter
      (fun u -> adj.(u) <- union_excluding adj.(u) ~skip1:v nbrs ~skip2:u)
      nbrs;
    adj.(v) <- [||]
  done;
  order

(* --- symbolic fill (etree row structures) ------------------------------ *)

(* lower.(i) = sorted j < i adjacent to i in the permuted symmetric
   pattern.  Returns the strictly-lower row patterns of L (sorted). *)
let fill_pattern ~n ~lower =
  let parent = Array.make n (-1) in
  let flag = Array.make n (-1) in
  let rows = Array.make n [||] in
  let buf = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    flag.(i) <- i;
    let len = ref 0 in
    Array.iter
      (fun j ->
        let jj = ref j in
        while flag.(!jj) <> i do
          buf.(!len) <- !jj;
          incr len;
          flag.(!jj) <- i;
          if parent.(!jj) = -1 then parent.(!jj) <- i;
          jj := parent.(!jj)
        done)
      lower.(i);
    let row = Array.sub buf 0 !len in
    Array.sort int_compare row;
    rows.(i) <- row
  done;
  rows

(* --- analysis ----------------------------------------------------------- *)

let analyze ~n:dim ~entries =
  if dim < 0 then invalid_arg "Sparse.analyze: negative dimension";
  Atomic.incr analyses;
  let n = dim in
  let keys = dedup_keys ~n entries in
  let m = Array.length keys in
  let colmatch =
    match max_transversal ~n ~cols:(column_rows ~n keys) with
    | Ok colmatch -> colmatch
    | Error c ->
      Linalg_error.fail ~routine:"Sparse.analyze"
        ~reason:
          (Printf.sprintf
             "structurally singular pattern: no transversal covers column %d"
             c)
  in
  (* Row-permuted pattern B: A entry (r, c) lands at B row rowmatch(r).
     Build the symmetric adjacency of B ∪ Bᵀ (no self-loops). *)
  let rowmatch = Array.make (max n 1) 0 in
  for c = 0 to n - 1 do
    rowmatch.(colmatch.(c)) <- c
  done;
  let pair_keys = Array.make (max (2 * m) 1) 0 in
  let np = ref 0 in
  Array.iter
    (fun k ->
      let r = rowmatch.(k / n) and c = k mod n in
      if r <> c then begin
        pair_keys.(!np) <- (r * n) + c;
        incr np;
        pair_keys.(!np) <- (c * n) + r;
        incr np
      end)
    keys;
  let pair_keys = Array.sub pair_keys 0 !np in
  Array.sort int_compare pair_keys;
  let adj_cnt = Array.make (max n 1) 0 in
  let npu = ref 0 in
  for i = 0 to Array.length pair_keys - 1 do
    if i = 0 || pair_keys.(i) <> pair_keys.(i - 1) then begin
      pair_keys.(!npu) <- pair_keys.(i);
      incr npu;
      adj_cnt.(pair_keys.(i) / n) <- adj_cnt.(pair_keys.(i) / n) + 1
    end
  done;
  let adj = Array.init n (fun v -> Array.make adj_cnt.(v) 0) in
  let adj_fill = Array.make (max n 1) 0 in
  for i = 0 to !npu - 1 do
    let v = pair_keys.(i) / n and u = pair_keys.(i) mod n in
    adj.(v).(adj_fill.(v)) <- u;
    adj_fill.(v) <- adj_fill.(v) + 1
  done;
  let order = min_degree ~n ~adj in
  let order_inv = Array.make (max n 1) 0 in
  for k = 0 to n - 1 do
    order_inv.(order.(k)) <- k
  done;
  (* Strictly-lower adjacency of the permuted symmetric pattern. *)
  let lower =
    Array.init n (fun i ->
        let v = order.(i) in
        let l =
          Array.of_seq
            (Seq.filter
               (fun j -> j < i)
               (Seq.map (fun u -> order_inv.(u)) (Array.to_seq adj.(v))))
        in
        Array.sort int_compare l;
        l)
  in
  let lrows = fill_pattern ~n ~lower in
  (* U rows mirror L columns: k ∈ Urow(j) iff j ∈ Lrow(k), k ascending. *)
  let ucnt = Array.make (max n 1) 0 in
  Array.iter (fun row -> Array.iter (fun j -> ucnt.(j) <- ucnt.(j) + 1) row)
    lrows;
  let urows = Array.init n (fun j -> Array.make ucnt.(j) 0) in
  let ufill = Array.make (max n 1) 0 in
  for k = 0 to n - 1 do
    Array.iter
      (fun j ->
        urows.(j).(ufill.(j)) <- k;
        ufill.(j) <- ufill.(j) + 1)
      lrows.(k)
  done;
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <-
      row_ptr.(i) + Array.length lrows.(i) + 1 + Array.length urows.(i)
  done;
  let col_ind = Array.make (max row_ptr.(n) 1) 0 in
  let diag_pos = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    let p = ref row_ptr.(i) in
    Array.iter
      (fun j ->
        col_ind.(!p) <- j;
        incr p)
      lrows.(i);
    diag_pos.(i) <- !p;
    col_ind.(!p) <- i;
    incr p;
    Array.iter
      (fun k ->
        col_ind.(!p) <- k;
        incr p)
      urows.(i)
  done;
  let perm = order in
  let perm_inv = order_inv in
  let orig_row = Array.init n (fun i -> colmatch.(perm.(i))) in
  let pos_of_row = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    pos_of_row.(orig_row.(i)) <- i
  done;
  { n; perm; perm_inv; orig_row; pos_of_row; row_ptr; col_ind; diag_pos }

(* --- the symbolic cache ------------------------------------------------- *)

(* Keyed on the exact deduplicated pattern; Hashtbl.hash truncates long
   arrays but equality is full structural comparison, so collisions cost
   probes, never correctness.  Guarded by a mutex: symbolic values are
   immutable, so sharing one across domains is safe. *)
let cache : (int * int array, symbolic) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()
let cache_bound = 64

let analyze_cached ~n ~entries =
  let key = (n, dedup_keys ~n entries) in
  Mutex.lock cache_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_mutex)
    (fun () ->
      match Hashtbl.find_opt cache key with
      | Some sym -> sym
      | None ->
        let sym = analyze ~n ~entries in
        if Hashtbl.length cache >= cache_bound then Hashtbl.reset cache;
        Hashtbl.add cache key sym;
        sym)

(* --- numeric phase ------------------------------------------------------ *)

let create_numeric sym =
  {
    sym;
    ax = Array.make (max (nnz sym) 1) 0.0;
    w = Array.make (max sym.n 1) 0.0;
    y = Array.make (max sym.n 1) 0.0;
  }

let symbolic_of t = t.sym
let values t = t.ax
let clear t = Array.fill t.ax 0 (Array.length t.ax) 0.0

let slot sym ~row ~col =
  if row < 0 || row >= sym.n || col < 0 || col >= sym.n then
    invalid_arg "Sparse.slot: index out of range";
  let pi = sym.pos_of_row.(row) in
  let pj = sym.perm_inv.(col) in
  let lo = ref sym.row_ptr.(pi) and hi = ref sym.row_ptr.(pi + 1) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if sym.col_ind.(mid) < pj then lo := mid + 1 else hi := mid
  done;
  if !lo >= sym.row_ptr.(pi + 1) || sym.col_ind.(!lo) <> pj then
    invalid_arg "Sparse.slot: entry outside the fill pattern";
  !lo

(* Up-looking numeric refactorization on the static pattern.  Hot: no
   allocation (local refs compile to mutable stack slots), direct flat
   indexing only. *)
let[@vstat.hot] factor t =
  let sym = t.sym in
  let n = sym.n in
  let ax = t.ax and w = t.w in
  let rp = sym.row_ptr and ci = sym.col_ind and dp = sym.diag_pos in
  for i = 0 to n - 1 do
    (* Scatter the stamped row, recording its magnitude as pivot scale. *)
    let scale = ref 0.0 in
    for p = rp.(i) to rp.(i + 1) - 1 do
      let v = ax.(p) in
      w.(ci.(p)) <- v;
      let av = Float.abs v in
      if av > !scale then scale := av
    done;
    (* Eliminate against factored rows j < i, ascending. *)
    for p = rp.(i) to dp.(i) - 1 do
      let j = ci.(p) in
      let lij = w.(j) /. ax.(dp.(j)) in
      w.(j) <- lij;
      for q = dp.(j) + 1 to rp.(j + 1) - 1 do
        w.(ci.(q)) <- w.(ci.(q)) -. (lij *. ax.(q))
      done
    done;
    (* Scale-relative pivot test; scale >= 0 and a NaN pivot fails too. *)
    let piv = Float.abs w.(i) in
    if not (piv > singular_rtol *. !scale) then
      raise (Lu.Singular { column = sym.perm.(i); scale = !scale });
    for p = rp.(i) to rp.(i + 1) - 1 do
      ax.(p) <- w.(ci.(p))
    done
  done;
  Atomic.incr refactorizations

let[@vstat.hot] solve_in_place t b =
  let sym = t.sym in
  let n = sym.n in
  if Array.length b <> n then invalid_arg "Sparse.solve_in_place: rhs length";
  let ax = t.ax and y = t.y in
  let rp = sym.row_ptr and ci = sym.col_ind and dp = sym.diag_pos in
  let orig_row = sym.orig_row and perm = sym.perm in
  (* Permute the RHS into factored row order. *)
  for i = 0 to n - 1 do
    y.(i) <- b.(orig_row.(i))
  done;
  (* Forward substitution with unit-diagonal L. *)
  for i = 0 to n - 1 do
    let acc = ref y.(i) in
    for p = rp.(i) to dp.(i) - 1 do
      acc := !acc -. (ax.(p) *. y.(ci.(p)))
    done;
    y.(i) <- !acc
  done;
  (* Backward substitution with U. *)
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for p = dp.(i) + 1 to rp.(i + 1) - 1 do
      acc := !acc -. (ax.(p) *. y.(ci.(p)))
    done;
    y.(i) <- !acc /. ax.(dp.(i))
  done;
  (* Permute the solution back to original column order. *)
  for i = 0 to n - 1 do
    b.(perm.(i)) <- y.(i)
  done

let iter_entries t ~f =
  let sym = t.sym in
  for i = 0 to sym.n - 1 do
    for p = sym.row_ptr.(i) to sym.row_ptr.(i + 1) - 1 do
      f ~row:sym.orig_row.(i) ~col:sym.perm.(sym.col_ind.(p)) t.ax.(p)
    done
  done
