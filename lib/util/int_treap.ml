(* Mutable ordered map from int keys to int values: a treap over one flat
   int array, for the sanitizer's live-range map. [Map.Make (Int)] answers
   the same questions, but each predecessor or successor query allocates a
   closure and an option, and each [add] copies the path to the root.
   Here one descent binds a key and finds both of its neighbours, and
   nothing is allocated once the array has grown to the live set.

   Every node is [stride] consecutive ints: key, value, priority, left
   child, right child. A node is named by the index of its key, -1 is the
   empty tree, and removed nodes are recycled through their left field.
   Node 0 is a header whose left field holds the root, so every child
   pointer, the root included, is a cell of the array: a descent carries
   the index of the cell it came through ([link]) and relinks there,
   without recursion. Priorities are heap-ordered (a parent's is at least
   its children's) and drawn at insertion from a generator seeded once per
   process: the tree's shape is that of a random binary search tree
   whatever order the keys arrive in, so a peer choosing addresses cannot
   build a long path without knowing the seed. Expected depth is
   O(log n). *)

let key_ = 0
let value_ = 1
let prio_ = 2
let left_ = 3
let right_ = 4
let stride = 5
let nil = -1
let root_link = left_ (* of the header, node 0 *)

type t = {
  mutable nodes : int array;
  mutable free : int; (* recycled nodes, linked through their left field *)
  mutable top : int; (* first node never used *)
  mutable length : int;
  mutable rng : int;
  mutable pred : int;
  mutable succ : int;
}

let process_seed =
  let st = Random.State.make_self_init () in
  (Random.State.bits st lsl 30) lor Random.State.bits st

let create () =
  let nodes = Array.make (stride * (1 + 16)) 0 (* the header and 16 nodes *) in
  nodes.(root_link) <- nil;
  { nodes; free = nil; top = stride; length = 0; rng = process_seed; pred = nil; succ = nil }

let length t = t.length
let pred t = t.pred
let succ t = t.succ

(* A splitmix-style step on the 63-bit state. *)
let next_priority t =
  let s = t.rng + 0x1E3779B97F4A7C15 in
  t.rng <- s;
  let z = (s lxor (s lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

(* Primitives typed at [int array], so no access checks for a float
   array and no write barrier. *)
external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

let rec rightmost (a : int array) (n : int) =
  let r = get a (n + right_) in
  if r < 0 then n else rightmost a r

let rec leftmost (a : int array) (n : int) =
  let l = get a (n + left_) in
  if l < 0 then n else leftmost a l

(* The loops below are top level with annotated int arguments: a local
   loop would allocate a closure per call, and an unannotated one would
   compare polymorphically. *)
let rec descend t (a : int array) (k : int) (n : int) (pred : int) (succ : int) =
  if n < 0 then begin
    t.pred <- pred;
    t.succ <- succ;
    nil
  end
  else begin
    let kn = get a (n + key_) in
    if k < kn then descend t a k (get a (n + left_)) pred n
    else if k > kn then descend t a k (get a (n + right_)) n succ
    else begin
      let l = get a (n + left_) and r = get a (n + right_) in
      t.pred <- (if l < 0 then pred else rightmost a l);
      t.succ <- (if r < 0 then succ else leftmost a r);
      n
    end
  end

let key t n = get t.nodes (n + key_)
let value t n = get t.nodes (n + value_)

let search t k = descend t t.nodes k (get t.nodes root_link) nil nil

let grow t =
  let a = Array.make (2 * Array.length t.nodes) 0 in
  Array.blit t.nodes 0 a 0 t.top;
  t.nodes <- a

let new_node t (a : int array) (k : int) (v : int) (p : int) =
  let n =
    if t.free >= 0 then begin
      let n = t.free in
      t.free <- get a (n + left_);
      n
    end
    else begin
      let n = t.top in
      t.top <- n + stride;
      n
    end
  in
  set a (n + key_) k;
  set a (n + value_) v;
  set a (n + prio_) p;
  t.length <- t.length + 1;
  n

(* Cut the subtree [n] into its keys below [k], hung at cell [lp], and
   above [k], hung at cell [rp]. *)
let rec split (a : int array) (k : int) (n : int) (lp : int) (rp : int) =
  if n < 0 then begin
    set a lp nil;
    set a rp nil
  end
  else if get a (n + key_) < k then begin
    set a lp n;
    split a k (get a (n + right_)) (n + right_) rp
  end
  else begin
    set a rp n;
    split a k (get a (n + left_)) lp (n + left_)
  end

(* Walk [k]'s search path from cell [link], noting in [at] the first cell
   whose node's priority is below [p]: a new node of priority [p] goes
   there, with that subtree split under it. *)
let rec place t (a : int array) (k : int) (v : int) (p : int) (link : int) (at : int)
    (pred : int) (succ : int) =
  let n = get a link in
  if n < 0 then begin
    t.pred <- pred;
    t.succ <- succ;
    let at = if at < 0 then link else at in
    let node = new_node t a k v p in
    split a k (get a at) (node + left_) (node + right_);
    set a at node;
    nil
  end
  else begin
    let at = if at < 0 && get a (n + prio_) < p then link else at in
    let kn = get a (n + key_) in
    if k < kn then place t a k v p (n + left_) at pred n
    else if k > kn then place t a k v p (n + right_) at n succ
    else begin
      set a (n + value_) v;
      n
    end
  end

let replace t k v =
  (* Grow first, so the array [place] holds stays the live one. *)
  if t.free < 0 && t.top + stride > Array.length t.nodes then grow t;
  place t t.nodes k v (next_priority t) root_link nil nil nil

(* Hang at cell [link] the join of [l] and [r], whose keys are all below
   and all above each other. *)
let rec join (a : int array) (link : int) (l : int) (r : int) =
  if l < 0 then set a link r
  else if r < 0 then set a link l
  else if get a (l + prio_) > get a (r + prio_) then begin
    set a link l;
    join a (l + right_) (get a (l + right_)) r
  end
  else begin
    set a link r;
    join a (r + left_) l (get a (r + left_))
  end

let rec unlink t (a : int array) (k : int) (link : int) =
  let n = get a link in
  if n < 0 then nil
  else begin
    let kn = get a (n + key_) in
    if k < kn then unlink t a k (n + left_)
    else if k > kn then unlink t a k (n + right_)
    else begin
      join a link (get a (n + left_)) (get a (n + right_));
      set a (n + left_) t.free;
      t.free <- n;
      t.length <- t.length - 1;
      n
    end
  end

let remove t k = unlink t t.nodes k root_link

let rec depth_below (a : int array) (n : int) =
  if n < 0 then 0
  else begin
    let l = depth_below a (get a (n + left_)) and r = depth_below a (get a (n + right_)) in
    1 + if l > r then l else r
  end

let depth t = depth_below t.nodes (get t.nodes root_link)
