module Block = Dmm_core.Block
module Free_structure = Dmm_core.Free_structure
module Manager = Dmm_core.Manager
open Dmm_core.Decision

(* --- single-structure lint --------------------------------------------------
   A bounded walk (the recorded cardinality plus one caps the traversal, so
   a cycle cannot hang the linter) followed by whole-set checks. *)

let lint_structure ?(label = "free structure") ?expect fs =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let cardinal = Free_structure.cardinal fs in
  let blocks = ref [] and count = ref 0 and overran = ref false in
  (try
     Free_structure.iter
       (fun b ->
         incr count;
         if !count > cardinal then begin
           overran := true;
           raise Exit
         end;
         blocks := b :: !blocks)
       fs
   with Exit -> ());
  if !overran then
    [
      Diag.vf "free-structure-cycle"
        "%s: traversal exceeds the recorded cardinality of %d — linked cycle or stale \
         count"
        label cardinal;
    ]
  else begin
    let blocks = List.rev !blocks in
    if !count < cardinal then
      add
        (Diag.vf "free-structure-cardinal"
           "%s: traversal visits %d blocks but the recorded cardinality is %d" label
           !count cardinal);
    let sum = List.fold_left (fun acc (b : Block.t) -> acc + b.size) 0 blocks in
    if sum <> Free_structure.total_bytes fs then
      add
        (Diag.vf "free-structure-bytes"
           "%s: blocks sum to %d bytes but the cached total is %d" label sum
           (Free_structure.total_bytes fs));
    List.iter
      (fun (b : Block.t) ->
        if b.size <= 0 then
          add
            (Diag.vf "free-structure-size" "%s: block at %d has non-positive size %d"
               label b.addr b.size);
        if not (Block.is_free b) then
          add
            (Diag.vf "free-structure-status"
               "%s: block at %d is linked as free but its status says used" label b.addr);
        match expect with
        | Some (Manager.Exactly z) when b.size <> z ->
          add
            (Diag.vf "pool-size-class"
               "%s: block of %d bytes in a pool dedicated to %d-byte blocks" label
               b.size z)
        | Some (Manager.Within { above; up_to }) ->
          let high_ok = match up_to with None -> true | Some u -> b.size <= u in
          if not (b.size > above && high_ok) then
            add
              (Diag.vf "pool-size-class"
                 "%s: block of %d bytes outside the pool's (%d,%s] size range" label
                 b.size above
                 (match up_to with None -> "inf" | Some u -> string_of_int u))
        | Some (Manager.Exactly _) | Some Manager.Any_size | None -> ())
      blocks;
    (* Address-level checks over the sorted view. *)
    let sorted =
      List.sort (fun (a : Block.t) (b : Block.t) -> compare a.addr b.addr) blocks
    in
    let rec pairwise = function
      | ({ Block.addr = a; _ } as x) :: ({ Block.addr = b; _ } as y) :: rest ->
        if a = b then
          add (Diag.vf "free-structure-duplicate" "%s: block address %d linked twice" label a)
        else if Block.end_addr x > b then
          add
            (Diag.vf "free-structure-overlap" "%s: free blocks [%d,%d) and [%d,%d) overlap"
               label a (Block.end_addr x) b (Block.end_addr y));
        pairwise (y :: rest)
      | [] | [ _ ] -> ()
    in
    pairwise sorted;
    (if Free_structure.structure fs = Address_ordered_list then
       let rec ascending = function
         | (x : Block.t) :: (y : Block.t) :: rest ->
           if x.addr >= y.addr then
             add
               (Diag.vf "free-structure-unsorted"
                  "%s: address-ordered list has %d before %d" label x.addr y.addr);
           ascending (y :: rest)
         | [] | [ _ ] -> ()
       in
       ascending blocks);
    List.rev !diags
  end

(* --- whole-manager lint ------------------------------------------------------ *)

let lint_manager m =
  let pool_diags =
    List.concat_map
      (fun { Manager.pool_label; expect; fs } ->
        lint_structure ~label:pool_label ~expect fs)
      (Manager.pool_views m)
  in
  let registry_diags =
    match Manager.check_invariants m with
    | Ok () -> []
    | Error msg -> [ Diag.v "manager-invariants" msg ]
  in
  pool_diags @ registry_diags
