(* An immutable binary trie keyed by Prefix.t, kept as the naive oracle
   for the trie walks over a monitor's slots: {!fold_monitor} builds the
   trie of a monitor's counters and folds it bottom-up, which is how the
   reference HHH detection and cover oracles walk it.  Nodes exist for
   every prefix on the path from the root prefix to a bound prefix; values
   hang off any node.  Only the tests use it. *)

module Prefix = Prefix_ops

type 'a node = { value : 'a option; left : 'a node option; right : 'a node option }

type 'a t = { root_prefix : Prefix.t; root : 'a node option; cardinal : int }

let empty_node = { value = None; left = None; right = None }

let empty root_prefix = { root_prefix; root = None; cardinal = 0 }

let is_empty t = t.cardinal = 0

let cardinal t = t.cardinal

(* Direction of [target] below [at]: true = right branch. *)
let branch_right ~at target =
  let bit_index = Prefix.address_bits - Prefix.length at - 1 in
  Prefix.bits target land (1 lsl bit_index) <> 0

let node_is_empty n = n.value = None && n.left = None && n.right = None

let rec add_node node at target v =
  let node = match node with Some n -> n | None -> empty_node in
  if Prefix.equal at target then ({ node with value = Some v }, node.value = None)
  else if branch_right ~at target then begin
    let at' = match Prefix.right_child at with Some p -> p | None -> assert false in
    let child, fresh = add_node node.right at' target v in
    ({ node with right = Some child }, fresh)
  end
  else begin
    let at' = match Prefix.left_child at with Some p -> p | None -> assert false in
    let child, fresh = add_node node.left at' target v in
    ({ node with left = Some child }, fresh)
  end

let add t p v =
  if not (Prefix.covers t.root_prefix p) then
    invalid_arg
      (Printf.sprintf "Reference_trie.add: %s outside root %s" (Prefix.to_string p)
         (Prefix.to_string t.root_prefix));
  let root, fresh = add_node t.root t.root_prefix p v in
  { t with root = Some root; cardinal = (if fresh then t.cardinal + 1 else t.cardinal) }

let rec remove_node node at target =
  match node with
  | None -> (None, false)
  | Some n ->
    if Prefix.equal at target then begin
      let n' = { n with value = None } in
      ((if node_is_empty n' then None else Some n'), n.value <> None)
    end
    else begin
      let n', removed =
        if branch_right ~at target then begin
          let at' = match Prefix.right_child at with Some p -> p | None -> assert false in
          let child, removed = remove_node n.right at' target in
          ({ n with right = child }, removed)
        end
        else begin
          let at' = match Prefix.left_child at with Some p -> p | None -> assert false in
          let child, removed = remove_node n.left at' target in
          ({ n with left = child }, removed)
        end
      in
      ((if node_is_empty n' then None else Some n'), removed)
    end

let remove t p =
  if not (Prefix.covers t.root_prefix p) then t
  else begin
    let root, removed = remove_node t.root t.root_prefix p in
    { t with root; cardinal = (if removed then t.cardinal - 1 else t.cardinal) }
  end

let rec find_node node at target =
  match node with
  | None -> None
  | Some n ->
    if Prefix.equal at target then n.value
    else if branch_right ~at target then begin
      match Prefix.right_child at with
      | Some at' -> find_node n.right at' target
      | None -> None
    end
    else begin
      match Prefix.left_child at with
      | Some at' -> find_node n.left at' target
      | None -> None
    end

let find t p = if Prefix.covers t.root_prefix p then find_node t.root t.root_prefix p else None

let update t p f =
  match f (find t p) with
  | Some v -> add t p v
  | None -> remove t p

let longest_match t addr =
  if not (Prefix.contains t.root_prefix addr) then None
  else begin
    let rec go node at best =
      match node with
      | None -> best
      | Some n ->
        let best = match n.value with Some v -> Some (at, v) | None -> best in
        if Prefix.is_exact at then best
        else begin
          let bit_index = Prefix.address_bits - Prefix.length at - 1 in
          if addr land (1 lsl bit_index) <> 0 then begin
            match Prefix.right_child at with
            | Some at' -> go n.right at' best
            | None -> best
          end
          else begin
            match Prefix.left_child at with
            | Some at' -> go n.left at' best
            | None -> best
          end
        end
    in
    go t.root t.root_prefix None
  end

let fold t ~init ~f =
  let rec go node at acc =
    match node with
    | None -> acc
    | Some n ->
      let acc = match n.value with Some v -> f acc at v | None -> acc in
      let acc =
        match Prefix.left_child at with
        | Some at' -> go n.left at' acc
        | None -> acc
      in
      begin
        match Prefix.right_child at with
        | Some at' -> go n.right at' acc
        | None -> acc
      end
  in
  go t.root t.root_prefix init

let bindings t = List.rev (fold t ~init:[] ~f:(fun acc p v -> (p, v) :: acc))

let descendants t p =
  List.filter (fun (q, _) -> Prefix.covers p q) (bindings t)

let remove_subtree t p =
  List.fold_left (fun t (q, _) -> remove t q) t (descendants t p)

let fold_bottom_up t ~f =
  let rec go node at =
    let child child_node child_prefix =
      match (child_node, child_prefix) with
      | Some n, Some p -> Some (go n p)
      | _, _ -> None
    in
    let results =
      List.filter_map Fun.id
        [ child node.left (Prefix.left_child at); child node.right (Prefix.right_child at) ]
    in
    f at node.value results
  in
  match t.root with
  | None -> None
  | Some n -> Some (go n t.root_prefix)

(* The trie the counters of a monitor imply, with each counter's slot as
   its value, folded bottom-up: [f prefix slot child_results], [slot] -1 on
   a structural node, children left first.  Under the partition invariant
   a counter is a leaf. *)
let fold_monitor m ~f =
  let module Monitor = Monitor_views in
  let trie = ref (empty (Monitor.spec m).Dream_tasks.Task_spec.filter) in
  for i = 0 to Monitor.num_counters m - 1 do
    trie := add !trie (Monitor.prefix m i) i
  done;
  match fold_bottom_up !trie ~f:(fun p slot children -> f p (Option.value slot ~default:(-1)) children) with
  | Some r -> r
  | None -> invalid_arg "Reference_trie.fold_monitor: no counters"
