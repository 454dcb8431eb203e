(* The searches the library's cursors replaced, kept as differential
   oracles.  [read_keys] finds each key's address range with two fresh
   binary searches, as Aggregate.read_keys did before it galloped from the
   previous key's range; [hhh_truth] is Ground_truth's HHH walk before it
   carried each node's range down, reading every node's volume as a
   one-key batch.  Both work on a copy of the aggregate's columns, so they
   share no search code with the library.  Only the tests use them. *)

module Prefix = Prefix_ops
module Aggregate = Dream_traffic.Aggregate
module Items = Dream_tasks.Items
module Task_spec = Dream_tasks.Task_spec

(* The aggregate's addresses, ascending, and the running sums of its
   volumes, summed left to right as the aggregate sums its own. *)
type columns = { addrs : int array; cumulative : float array }

let columns aggregate =
  let flows =
    Array.of_list (List.rev (Aggregate.fold aggregate ~init:[] ~f:(fun acc f -> f :: acc)))
  in
  let n = Array.length flows in
  let cumulative = Array.make (n + 1) 0.0 in
  Array.iteri
    (fun i (f : Dream_traffic.Flow.t) ->
      cumulative.(i + 1) <- cumulative.(i) +. f.Dream_traffic.Flow.volume)
    flows;
  { addrs = Array.map (fun (f : Dream_traffic.Flow.t) -> f.Dream_traffic.Flow.addr) flows; cumulative }

(* The first index in [lo, hi) whose address is >= [addr], or [hi]. *)
let rec lower_bound addrs addr lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if addrs.(mid) < addr then lower_bound addrs addr (mid + 1) hi else lower_bound addrs addr lo mid
  end

let volume_of c key =
  let n = Array.length c.addrs in
  let lo = lower_bound c.addrs (Prefix.key_bits key) 0 n in
  let hi = lower_bound c.addrs (Prefix.key_last key + 1) lo n in
  c.cumulative.(hi) -. c.cumulative.(lo)

let read_keys aggregate ~keys ~n vols =
  let c = columns aggregate in
  for i = 0 to n - 1 do
    vols.(i) <- volume_of c keys.(i)
  done

let push (items : Items.t) key =
  Items.reserve items (items.Items.n + 1);
  items.Items.keys.(items.Items.n) <- key;
  items.Items.n <- items.Items.n + 1

(* The true HHHs of an HHH task's spec, in the order the walk writes
   them: a node whose volume unclaimed by true HHHs below exceeds the
   threshold is one, moved before the descendants written since entering
   it; subtrees whose volume cannot hold one are pruned. *)
let hhh_truth (spec : Task_spec.t) aggregate =
  let c = columns aggregate in
  let threshold = spec.Task_spec.threshold and leaf_length = spec.Task_spec.leaf_length in
  let truth = Items.create () and ret = Array.make (Prefix.address_bits + 1) 0.0 in
  let rec walk bits len =
    let key = Prefix.key_of ~bits ~length:len in
    ret.(len) <- volume_of c key;
    if not (ret.(len) <= threshold) then begin
      if len >= leaf_length || len >= Prefix.address_bits then begin
        push truth key;
        ret.(len) <- 0.0
      end
      else begin
        let start = truth.Items.n in
        walk bits (len + 1);
        let left = ret.(len + 1) in
        walk (bits lor (1 lsl (Prefix.address_bits - 1 - len))) (len + 1);
        let unclaimed = left +. ret.(len + 1) in
        if unclaimed > threshold then begin
          push truth key;
          Items.rotate truth start;
          ret.(len) <- 0.0
        end
        else ret.(len) <- unclaimed
      end
    end
  in
  let filter = spec.Task_spec.filter in
  walk (Prefix.bits filter) (Prefix.length filter);
  truth
