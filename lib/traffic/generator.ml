module Prefix = Dream_prefix.Prefix
module Rng = Dream_util.Rng

type kind = Heavy | Medium | Small

type source = { mutable addr : Prefix.address; mutable base : float; kind : kind }

type t = {
  rng : Rng.t;
  topology : Topology.t;
  profile : Profile.t;
  mutable epoch : int;
  mutable heavies : source list; (* active heavy sources; length varies with phases *)
  mediums : source array;
  smalls : source array;
  used : (Prefix.address, unit) Hashtbl.t; (* addresses in use, to keep sources distinct *)
  subs : (Prefix.t * Switch_id.t) array; (* topology subfilters, hoisted out of pick_address *)
  by_switch : (Switch_id.t, Flow.t list) Hashtbl.t; (* per-epoch staging, cleared not rebuilt *)
}

let pick_address t =
  (* Place the source in a sub-filter drawn with Zipf skew, then uniformly
     within it; retry on collision so every source has a distinct address. *)
  let subs = t.subs in
  let k = Array.length subs in
  let rec attempt tries =
    let rank =
      if t.profile.Profile.switch_skew <= 0.0 then 1 + Rng.int t.rng k
      else Rng.zipf t.rng ~n:k ~s:t.profile.Profile.switch_skew
    in
    let sub, _sw = subs.(rank - 1) in
    let span = Prefix.size sub in
    let addr = Prefix.first_address sub + Rng.int t.rng span in
    if Hashtbl.mem t.used addr && tries < 64 then attempt (tries + 1)
    else begin
      Hashtbl.replace t.used addr ();
      addr
    end
  in
  attempt 0

let base_volume t kind =
  let threshold = t.profile.Profile.threshold in
  match kind with
  | Heavy ->
    (* Above threshold with a Pareto tail: drill-downs find them, and their
       magnitude spread exercises "smaller heavy hitters need more
       resources". The 1.3 factor keeps jittered volumes above threshold. *)
    Rng.pareto t.rng ~alpha:t.profile.Profile.heavy_alpha ~xmin:(threshold *. 1.3)
  | Medium ->
    (* Capped at 0.725 * threshold so jitter cannot push a medium source
       across the threshold and flap the ground truth. *)
    threshold /. 8.0 +. Rng.float t.rng (threshold *. 0.6)
  | Small -> 0.01 +. Rng.float t.rng (threshold /. 8.0)

let fresh_source t kind =
  let s = { addr = 0; base = 0.0; kind } in
  s.addr <- pick_address t;
  s.base <- base_volume t kind;
  s

let create rng ~topology ~profile =
  begin
    match Profile.validate profile with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Generator.create: " ^ msg)
  end;
  let t =
    {
      rng;
      topology;
      profile;
      epoch = 0;
      heavies = [];
      mediums = [||];
      smalls = [||];
      used = Hashtbl.create 1024;
      subs = Array.of_list (Topology.subfilters topology);
      by_switch = Hashtbl.create 16;
    }
  in
  let heavies = List.init profile.Profile.heavy_count (fun _ -> fresh_source t Heavy) in
  let mediums = Array.init profile.Profile.medium_count (fun _ -> fresh_source t Medium) in
  let smalls = Array.init profile.Profile.small_count (fun _ -> fresh_source t Small) in
  { t with heavies; mediums; smalls }

let emit w t =
  let module C = Dream_util.Codec in
  C.section w "generator";
  let s0, s1, s2, s3 = Rng.state t.rng in
  C.int64 w "rng0" s0;
  C.int64 w "rng1" s1;
  C.int64 w "rng2" s2;
  C.int64 w "rng3" s3;
  C.int w "epoch" t.epoch;
  Topology.emit w t.topology;
  Profile.emit w t.profile;
  let emit_source s =
    C.int w "addr" s.addr;
    C.float w "base" s.base;
    C.int w "kind" (match s.kind with Heavy -> 0 | Medium -> 1 | Small -> 2)
  in
  C.int w "heavies" (List.length t.heavies);
  List.iter emit_source t.heavies;
  C.int w "mediums" (Array.length t.mediums);
  Array.iter emit_source t.mediums;
  C.int w "smalls" (Array.length t.smalls);
  Array.iter emit_source t.smalls

let parse r =
  let module C = Dream_util.Codec in
  C.expect_section r "generator";
  let s0 = C.int64_field r "rng0" in
  let s1 = C.int64_field r "rng1" in
  let s2 = C.int64_field r "rng2" in
  let s3 = C.int64_field r "rng3" in
  let rng = Rng.of_state (s0, s1, s2, s3) in
  let epoch = C.int_field r "epoch" in
  let topology = Topology.parse r in
  let profile = Profile.parse r in
  let parse_source () =
    let addr = C.int_field r "addr" in
    let base = C.float_field r "base" in
    let kind =
      match C.int_field r "kind" with
      | 0 -> Heavy
      | 1 -> Medium
      | 2 -> Small
      | k -> C.parse_error 0 (Printf.sprintf "unknown source kind %d" k)
    in
    { addr; base; kind }
  in
  let heavies = C.repeat (C.int_field r "heavies") parse_source in
  let mediums = C.repeat (C.int_field r "mediums") parse_source |> Array.of_list in
  let smalls = C.repeat (C.int_field r "smalls") parse_source |> Array.of_list in
  let used = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace used s.addr ()) heavies;
  Array.iter (fun s -> Hashtbl.replace used s.addr ()) mediums;
  Array.iter (fun s -> Hashtbl.replace used s.addr ()) smalls;
  {
    rng;
    topology;
    profile;
    epoch;
    heavies;
    mediums;
    smalls;
    used;
    subs = Array.of_list (Topology.subfilters topology);
    by_switch = Hashtbl.create 16;
  }

let heavy_target t =
  let scale =
    List.fold_left
      (fun acc (ph : Profile.phase) -> if ph.start_epoch <= t.epoch then ph.heavy_scale else acc)
      1.0 t.profile.Profile.phases
  in
  let target = Float.round (float_of_int t.profile.Profile.heavy_count *. scale) in
  max 0 (int_of_float target)

let retire t source = Hashtbl.remove t.used source.addr

let churn_source t s =
  if t.profile.Profile.churn > 0.0 && Rng.bernoulli t.rng t.profile.Profile.churn then begin
    retire t s;
    s.addr <- pick_address t;
    s.base <- base_volume t s.kind
  end

let advance_population t =
  (* Phase adjustment of the heavy population. *)
  let target = heavy_target t in
  let current = List.length t.heavies in
  if target > current then begin
    let extra = List.init (target - current) (fun _ -> fresh_source t Heavy) in
    t.heavies <- List.rev_append extra t.heavies
  end
  else if target < current then begin
    let rec drop n = function
      | rest when n = 0 -> rest
      | [] -> []
      | s :: rest ->
        retire t s;
        drop (n - 1) rest
    in
    t.heavies <- drop (current - target) t.heavies
  end;
  List.iter (churn_source t) t.heavies;
  Array.iter (churn_source t) t.mediums;
  Array.iter (churn_source t) t.smalls

let emit_volume t s =
  if t.profile.Profile.jitter <= 0.0 then s.base
  else s.base *. Rng.lognormal t.rng ~mu:0.0 ~sigma:t.profile.Profile.jitter

let next t =
  advance_population t;
  let by_switch = t.by_switch in
  Hashtbl.clear by_switch;
  let emit s =
    match Topology.switch_of_address t.topology s.addr with
    | None -> ()
    | Some sw ->
      let flow = Flow.make ~addr:s.addr ~volume:(emit_volume t s) in
      let existing = match Hashtbl.find_opt by_switch sw with Some l -> l | None -> [] in
      Hashtbl.replace by_switch sw (flow :: existing)
  in
  List.iter emit t.heavies;
  Array.iter emit t.mediums;
  Array.iter emit t.smalls;
  (* Sort each switch's flows by descending address — after every volume
     draw, so the RNG stream is untouched.  [Epoch_data.of_flows] reverses
     each group on ingest, handing [Aggregate.of_flows] a strictly
     ascending list that takes the sortedness fast path instead of
     re-sorting.  Addresses within a switch are distinct (pick_address
     retries on collision), so the order is total and the combined values
     are bit-identical to the unsorted path. *)
  let groups =
    Hashtbl.fold
      (fun sw flows acc ->
        (sw, List.sort (fun (a : Flow.t) (b : Flow.t) -> Int.compare b.addr a.addr) flows) :: acc)
      by_switch []
  in
  let data = Epoch_data.of_flows ~epoch:t.epoch groups in
  t.epoch <- t.epoch + 1;
  data

let active_heavy_count t = List.length t.heavies [@@lint.allow "oracle hook: test/test_traffic.ml"]
