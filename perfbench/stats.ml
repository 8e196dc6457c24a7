(* Order statistics over small samples. *)

(* Linear interpolation between closest ranks; 0 on an empty sample so
   a bypassed layer reads as zero rather than NaN. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)
