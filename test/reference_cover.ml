(* The original Switch_id.Set-based cover() of Monitor, kept as the
   differential oracle for the bitmask candidate table in Monitor.Cover.
   It rebuilds the candidates with Reference_trie.fold_monitor (boxed node
   records, child lists, one Set operation per trie node) and runs the
   greedy over plain candidate lists.  Only the tests use it. *)

module Prefix = Prefix_ops
module Switch_id = Dream_traffic.Switch_id
module Monitor = Monitor_views

type solution = { ancestors : Prefix.t list; cost : float }

type node_info = {
  s : Switch_id.Set.t; (* switches with traffic under this node *)
  t_set : Switch_id.Set.t; (* switches freed by merging this node *)
  cost : float; (* total score of descendant counters *)
  count : int; (* descendant monitored counters *)
}

type candidates = {
  cands : (Prefix.t * node_info) list;
  cheapest_per_switch : float Switch_id.Map.t;
}

(* The switches a counter actually occupies. *)
let effective m i =
  let topology = Monitor.topology m in
  Switch_id.Set.inter
    (Reference_switch_set.switch_set topology (Monitor.prefix m i))
    (Reference_switch_set.set_of_mask topology (Monitor.active m))

let build_candidates m =
  let candidates = ref [] in
  let merge_info prefix slot (children : node_info list) =
    if slot >= 0 then
      { s = effective m slot; t_set = Switch_id.Set.empty; cost = Monitor.score m slot; count = 1 }
    else begin
      let info =
        match children with
        | [ only ] -> { only with t_set = only.t_set }
        | [ l; r ] ->
          {
            s = Switch_id.Set.union l.s r.s;
            t_set =
              Switch_id.Set.union
                (Switch_id.Set.union l.t_set r.t_set)
                (Switch_id.Set.inter l.s r.s);
            cost = l.cost +. r.cost;
            count = l.count + r.count;
          }
        | _ -> { s = Switch_id.Set.empty; t_set = Switch_id.Set.empty; cost = 0.0; count = 0 }
      in
      if (not (Switch_id.Set.is_empty info.t_set)) && info.count >= 2 then
        candidates := (prefix, info) :: !candidates;
      info
    end
  in
  ignore (Reference_trie.fold_monitor m ~f:merge_info);
  (* Pre-order, left first: the order the greedy breaks ties by. *)
  List.sort (fun (p, _) (q, _) -> Prefix.compare p q) !candidates

let build m =
  let cands = build_candidates m in
  let cheapest_per_switch =
    List.fold_left
      (fun acc (_, info) ->
        Switch_id.Set.fold
          (fun sw acc ->
            let current =
              match Switch_id.Map.find_opt sw acc with Some v -> v | None -> Float.infinity
            in
            Switch_id.Map.add sw (Float.min current info.cost) acc)
          info.t_set acc)
      Switch_id.Map.empty cands
  in
  { cands; cheapest_per_switch }

let repair_after_merge candidates ancestor =
  {
    candidates with
    cands = List.filter (fun (q, _) -> not (Prefix.covers ancestor q)) candidates.cands;
  }

let min_cost_bound candidates f =
  Switch_id.Set.fold
    (fun sw acc ->
      let c =
        match Switch_id.Map.find_opt sw candidates.cheapest_per_switch with
        | Some v -> v
        | None -> Float.infinity
      in
      Float.max acc c)
    f 0.0

let solve_with { cands; cheapest_per_switch = _ } ~exclude f =
  if Switch_id.Set.is_empty f then Some { ancestors = []; cost = 0.0 }
  else begin
    let keep (prefix, _) =
      match exclude with None -> true | Some p -> not (Prefix.covers prefix p)
    in
    let rec greedy chosen cost uncovered candidates =
      if Switch_id.Set.is_empty uncovered then Some { ancestors = chosen; cost }
      else begin
        let useful =
          List.filter_map
            (fun (prefix, info) ->
              let gain = Switch_id.Set.cardinal (Switch_id.Set.inter info.t_set uncovered) in
              if gain = 0 then None else Some (prefix, info, gain))
            candidates
        in
        let best =
          List.fold_left
            (fun acc (prefix, info, gain) ->
              let ratio = info.cost /. float_of_int gain in
              match acc with
              | Some (_, _, best_ratio) when best_ratio <= ratio -> acc
              | _ -> Some (prefix, info, ratio))
            None useful
        in
        match best with
        | None -> None
        | Some (prefix, info, _) ->
          let remaining =
            List.filter
              (fun (q, _) -> not (Prefix.covers q prefix || Prefix.covers prefix q))
              candidates
          in
          greedy (prefix :: chosen) (cost +. info.cost)
            (Switch_id.Set.diff uncovered info.t_set)
            remaining
      end
    in
    greedy [] 0.0 f (List.filter keep cands)
  end

let solve m ~exclude f = solve_with (build m) ~exclude f
