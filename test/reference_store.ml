(* The original boxed counter store, kept as the differential oracle for
   Dream_traffic.Aggregate.  Plain OCaml arrays, no fast paths: every build
   runs [combine], batched reads map [volume], and merges rebuild from
   the concatenated flow lists.  Only the tests use it. *)

module Prefix = Dream_prefix.Prefix
module Flow = Dream_traffic.Flow

type t = {
  addrs : int array; (* sorted, distinct *)
  volumes : float array; (* volume of addrs.(i) *)
  cumulative : float array; (* cumulative.(i) = sum volumes.(0..i-1); length n+1 *)
}

(* Sum volumes of duplicate addresses, left to right; output sorted by
   address. *)
let combine flows =
  let sorted = List.stable_sort (fun (a : Flow.t) (b : Flow.t) -> Int.compare a.addr b.addr) flows in
  let rec merge = function
    | [] -> []
    | [ f ] -> [ f ]
    | (a : Flow.t) :: (b : Flow.t) :: rest ->
      if a.addr = b.addr then merge ({ Flow.addr = a.addr; volume = a.volume +. b.volume } :: rest)
      else a :: merge (b :: rest)
  in
  merge sorted

let of_flows flows =
  let combined = combine flows in
  let n = List.length combined in
  let addrs = Array.make n 0 in
  let volumes = Array.make n 0.0 in
  List.iteri
    (fun i (f : Flow.t) ->
      addrs.(i) <- f.addr;
      volumes.(i) <- f.volume)
    combined;
  let cumulative = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    cumulative.(i + 1) <- cumulative.(i) +. volumes.(i)
  done;
  { addrs; volumes; cumulative }

(* Index of the first element >= key. *)
let lower_bound addrs key =
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if addrs.(mid) < key then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length addrs)

let range t p =
  let lo = lower_bound t.addrs (Prefix.first_address p) in
  let hi = lower_bound t.addrs (Prefix.last_address p + 1) in
  (lo, hi)

let volume t p =
  let lo, hi = range t p in
  t.cumulative.(hi) -. t.cumulative.(lo)

let total t = t.cumulative.(Array.length t.addrs)

let num_addresses t = Array.length t.addrs

let flow_at t i = { Flow.addr = t.addrs.(i); volume = t.volumes.(i) }

let flows_in t p =
  let lo, hi = range t p in
  List.init (hi - lo) (fun k -> flow_at t (lo + k))

let to_flows t = List.init (num_addresses t) (flow_at t)

let fold t ~init ~f = List.fold_left f init (to_flows t)

let read_prefixes t ps = List.map (fun p -> (p, volume t p)) ps

(* [combine]'s stable sort keeps equal addresses in concatenation order,
   so duplicates sum left operand first. *)
let merge a b = of_flows (to_flows a @ to_flows b)

let merge_all ts = of_flows (List.concat_map to_flows ts)
