(* The list-based traffic generator that [Dream_traffic.Generator] replaced,
   kept as its differential oracle.  Draw for draw it is the old module:
   a [Flow.t] per source, a [Hashtbl] of per-switch lists and a closure
   sort.  [next] stops short of building aggregates and returns the
   per-switch flow lists, each in descending address order as the old
   generator handed them on; test/test_traffic.ml builds the expected
   views from them with the boxed store of test/reference_store.ml. *)

module Prefix = Dream_prefix.Prefix
module Rng = Dream_util.Rng
module Topology = Dream_traffic.Topology
module Profile = Dream_traffic.Profile
module Flow = Dream_traffic.Flow
module Switch_id = Dream_traffic.Switch_id

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

(* The oracle's checkpoint text, field by field. *)
let emit t =
  let module C = Dream_util.Codec in
  let source s =
    C.encode (C.int "addr") s.addr
    ^ C.encode (C.float "base") s.base
    ^ C.encode (C.int "kind") (match s.kind with Heavy -> 0 | Medium -> 1 | Small -> 2)
  in
  let sources key l = C.encode (C.int key) (List.length l) ^ String.concat "" (List.map source l) in
  String.concat ""
    [
      "[generator]\n";
      C.encode (Rng.codec "rng") t.rng;
      C.encode (C.int "epoch") t.epoch;
      C.encode Topology.codec t.topology;
      C.encode Profile.codec t.profile;
      sources "heavies" t.heavies;
      sources "mediums" (Array.to_list t.mediums);
      sources "smalls" (Array.to_list t.smalls);
    ]

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
  else s.base *. exp (0.0 +. (t.profile.Profile.jitter *. Reference_fault.gaussian t.rng))

(* The old routing, a first-match scan of the sub-filters. *)
let switch_of_address t addr =
  Array.find_opt (fun (sub, _) -> Prefix.contains sub addr) t.subs |> Option.map snd

let next t =
  advance_population t;
  let by_switch = t.by_switch in
  Hashtbl.clear by_switch;
  let emit s =
    match switch_of_address t s.addr with
    | None -> ()
    | Some sw ->
      let flow = Flow.make ~addr:s.addr ~volume:(emit_volume t s) in
      let existing = match Hashtbl.find_opt by_switch sw with Some l -> l | None -> [] in
      Hashtbl.replace by_switch sw (flow :: existing)
  in
  List.iter emit t.heavies;
  Array.iter emit t.mediums;
  Array.iter emit t.smalls;
  (* Each switch's flows by descending address, after every volume draw;
     ties keep the list's order, the reverse of emission. *)
  let groups =
    Hashtbl.fold
      (fun sw flows acc ->
        (sw, List.sort (fun (a : Flow.t) (b : Flow.t) -> Int.compare b.addr a.addr) flows) :: acc)
      by_switch []
  in
  let epoch = t.epoch in
  t.epoch <- t.epoch + 1;
  (epoch, groups)
