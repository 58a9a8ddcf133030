(* Fixed-capacity (int * int) -> int map: open addressing, linear probing,
   tombstone deletion.  Keys are the [(hi, lo)] pair form of container
   keys (see Key) and values are non-negative DSL integers, all immediate,
   so every operation is allocation-free — the property the compiled
   per-packet path relies on.  The logical capacity is Vigor's: [put] on a
   full map with an absent key fails and the NF observes it.  The physical
   table grows (it starts small so maps that never see packed keys cost
   nothing) but the load factor stays at or below 1/2, which bounds probe
   sequences and guarantees termination without wraparound counters.

   Storage is one interleaved int array, [stride] cells per slot:
   [hi; lo; value].  A negative value marks a free slot ([empty] or
   [tombstone]), so a probe reads one slot's three words from one cache
   line instead of one line in each of several parallel arrays. *)

type t = {
  capacity : int; (* logical capacity; puts beyond it fail *)
  mutable mask : int; (* physical table size - 1 (power of two) *)
  mutable cells : int array; (* [hi; lo; value] per slot *)
  mutable size : int;
  mutable tombs : int;
}

let stride = 3
let empty = -1
let tombstone = -2

let initial_table = 16

(* Every cell starts as [empty]: stale [hi]/[lo] words of free slots are
   never compared, because the value cell is checked first. *)
let make_table n = Array.make (stride * n) empty

let create ~capacity =
  if capacity < 1 then invalid_arg "Intmap.create: capacity must be >= 1";
  { capacity; mask = initial_table - 1; cells = make_table initial_table; size = 0; tombs = 0 }

let capacity t = t.capacity
let length t = t.size

(* Fibonacci-style multiplicative mix; the constants fit a 63-bit int and
   multiplication wraps, which is all a table hash needs.  [lo = 0] (every
   key of at most 7 bytes) leaves [hi]'s hash unchanged. *)
let slot t hi lo =
  let h = (hi lxor (lo * 0x1E3779B97F4A7C15)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land t.mask

(* The probe loops are top-level functions taking every capture as an
   argument: a local [let rec] would close over [t]/[hi]/[lo] and allocate
   a closure per call, defeating the allocation-free contract. *)

(* Base cell of the key's occupied slot, or -1.  Load <= 1/2 keeps an
   empty slot on every probe path, so the loop terminates. *)
let rec probe_find cells mask hi lo i =
  let b = stride * i in
  let v = Array.unsafe_get cells (b + 2) in
  if v = empty then -1
  else if v >= 0 && Array.unsafe_get cells b = hi && Array.unsafe_get cells (b + 1) = lo then b
  else probe_find cells mask hi lo ((i + 1) land mask)

let find_cell t hi lo = probe_find t.cells t.mask hi lo (slot t hi lo)

let mem t hi lo = find_cell t hi lo >= 0

let find t hi lo ~absent =
  let b = find_cell t hi lo in
  if b < 0 then absent else Array.unsafe_get t.cells (b + 2)

(* Base cell of the first free (empty or tombstone) slot. *)
let rec probe_free cells mask i =
  let b = stride * i in
  if Array.unsafe_get cells (b + 2) >= 0 then probe_free cells mask ((i + 1) land mask) else b

let rec insert_fresh t hi lo v =
  (* precondition: key absent; keep load (occupied + tombstones) <= 1/2 *)
  if 2 * (t.size + t.tombs + 1) > t.mask + 1 then grow t;
  let cells = t.cells in
  let b = probe_free cells t.mask (slot t hi lo) in
  if Array.unsafe_get cells (b + 2) = tombstone then t.tombs <- t.tombs - 1;
  Array.unsafe_set cells b hi;
  Array.unsafe_set cells (b + 1) lo;
  Array.unsafe_set cells (b + 2) v;
  t.size <- t.size + 1

and grow t =
  (* Rebuild at the size the LIVE entries need — smallest power of two
     that leaves them at load <= 1/4 — not at a multiple of the current
     table.  Rebuilding drops every tombstone, so when the load breach is
     tombstone-driven (erase/re-insert churn at a stable live size) the
     table is rebuilt in place instead of doubling without bound; load
     1/4 after a rebuild leaves >= n/4 operations before the next one,
     keeping inserts amortized O(1). *)
  let n = ref initial_table in
  while !n < 4 * (t.size + 1) do
    n := !n * 2
  done;
  let old = t.cells in
  t.cells <- make_table !n;
  t.mask <- !n - 1;
  t.size <- 0;
  t.tombs <- 0;
  let b = ref 0 in
  while !b < Array.length old do
    let v = Array.unsafe_get old (!b + 2) in
    if v >= 0 then insert_fresh t (Array.unsafe_get old !b) (Array.unsafe_get old (!b + 1)) v;
    b := !b + stride
  done

let put t hi lo v =
  if v < 0 then invalid_arg "Intmap.put: negative value";
  let b = find_cell t hi lo in
  if b >= 0 then begin
    Array.unsafe_set t.cells (b + 2) v;
    true
  end
  else if t.size >= t.capacity then false
  else begin
    insert_fresh t hi lo v;
    true
  end

let erase t hi lo =
  let b = find_cell t hi lo in
  if b < 0 then false
  else begin
    Array.unsafe_set t.cells (b + 2) tombstone;
    t.size <- t.size - 1;
    t.tombs <- t.tombs + 1;
    true
  end

let copy t =
  (* field-exact duplicate: same physical table size, same probe layout,
     same tombstones — two copies that see the same operation sequence
     stay structurally identical, which the SCR replica seeding relies
     on (replicas must evolve in lockstep after a discipline switch) *)
  { t with cells = Array.copy t.cells }

let iter t f =
  let cells = t.cells in
  for i = 0 to t.mask do
    let b = stride * i in
    let v = Array.unsafe_get cells (b + 2) in
    if v >= 0 then f (Array.unsafe_get cells b) (Array.unsafe_get cells (b + 1)) v
  done

let table_slots t = t.mask + 1
let tombstones t = t.tombs

(* Probe length of an entry = forward distance from its home slot to where
   it actually lives; [find] walks exactly that many extra slots. *)
let probe_stats t =
  let max_p = ref 0 and total = ref 0 in
  let cells = t.cells in
  for i = 0 to t.mask do
    let b = stride * i in
    if Array.unsafe_get cells (b + 2) >= 0 then begin
      let home = slot t (Array.unsafe_get cells b) (Array.unsafe_get cells (b + 1)) in
      let d = (i - home) land t.mask in
      if d > !max_p then max_p := d;
      total := !total + d
    end
  done;
  let mean_x100 = if t.size = 0 then 0 else 100 * !total / t.size in
  (!max_p, mean_x100)

let clear t =
  t.cells <- make_table initial_table;
  t.mask <- initial_table - 1;
  t.size <- 0;
  t.tombs <- 0
