type t = {
  epoch : int;
  per_switch : Aggregate.t Switch_id.Map.t;
  combined : Aggregate.t;
}

let of_flows ~epoch groups =
  let per_switch =
    List.fold_left
      (fun acc (sw, flows) ->
        let existing = match Switch_id.Map.find_opt sw acc with Some a -> a | None -> [] in
        Switch_id.Map.add sw (List.rev_append flows existing) acc)
      Switch_id.Map.empty groups
  in
  let per_switch = Switch_id.Map.map Aggregate.of_flows per_switch in
  let switches = Array.of_list (List.map snd (Switch_id.Map.bindings per_switch)) in
  let combined = Aggregate.union (Aggregate.columns ()) switches in
  { epoch; per_switch; combined }

let switch_view t sw =
  match Switch_id.Map.find sw t.per_switch with a -> a | exception Not_found -> Aggregate.empty

let active_switches t =
  Switch_id.Map.fold (fun sw _ acc -> Switch_id.Set.add sw acc) t.per_switch Switch_id.Set.empty
