type t = int

let empty = 0

let full topology = (1 lsl Topology.switches_per_task topology) - 1

let[@inline] mem_bit b m = m land (1 lsl b) <> 0

let rec cardinal m = if m = 0 then 0 else 1 + cardinal (m land (m - 1))

(* The walks below visit Topology.switch_order from position [j]. *)
let rec fold_from topology order f m j acc =
  if j = Array.length order then acc
  else begin
    let b = order.(j) in
    let acc = if mem_bit b m then f (Topology.switch_of_bit topology b) b acc else acc in
    fold_from topology order f m (j + 1) acc
  end

let fold topology f m init = fold_from topology (Topology.switch_order topology) f m 0 init

let iter topology f m =
  let order = Topology.switch_order topology in
  for j = 0 to Array.length order - 1 do
    let b = order.(j) in
    if mem_bit b m then f (Topology.switch_of_bit topology b) b
  done

let rec exists_from topology order p m j =
  j < Array.length order
  && ((mem_bit order.(j) m && p (Topology.switch_of_bit topology order.(j)))
     || exists_from topology order p m (j + 1))

let exists topology p m = exists_from topology (Topology.switch_order topology) p m 0
