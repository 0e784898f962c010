module Scheme = Sempe_core.Scheme

type t =
  | Microbench of { kernel : string; width : int; iters : int; leaf : int }
  | Djpeg of { format : string; blocks : int; seed : int }
  | Rsa of { key : int }

let format_of_name name =
  let name = String.uppercase_ascii name in
  List.find_opt (fun f -> Djpeg.format_name f = name) Djpeg.all_formats

let kernel_named name =
  match Kernels.by_name name with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Workload: unknown kernel %S" name)

let format_named name =
  match format_of_name name with
  | Some fmt -> fmt
  | None ->
    invalid_arg (Printf.sprintf "Workload: unknown djpeg format %S" name)

let check workload =
  match workload with
  | Microbench { kernel; width; iters; leaf } ->
    if Kernels.by_name kernel = None then
      Error
        (Printf.sprintf "unknown kernel %S (expected one of: %s)" kernel
           (String.concat ", "
              (List.map (fun k -> k.Kernels.name) Kernels.all)))
    else if width < 1 then Error "field \"width\" must be >= 1"
    else if iters < 1 then Error "field \"iters\" must be >= 1"
    else if leaf < 1 || leaf > width + 1 then
      Error
        (Printf.sprintf "field \"leaf\" must be in 1..%d (the width plus one)"
           (width + 1))
    else Ok workload
  | Djpeg { format; blocks; seed } -> (
    match format_of_name format with
    | None ->
      Error
        (Printf.sprintf "unknown djpeg format %S (PPM, GIF or BMP)"
           (String.uppercase_ascii format))
    | Some _ when blocks < 1 -> Error "field \"blocks\" must be >= 1"
    | Some fmt -> Ok (Djpeg { format = Djpeg.format_name fmt; blocks; seed }))
  | Rsa { key } ->
    if key < 0 || key lsr Rsa.key_bits <> 0 then
      Error (Printf.sprintf "field \"key\" must fit in %d bits" Rsa.key_bits)
    else Ok workload

(* The software schemes get the constant-time kernel variants (their
   transforms would not terminate on data-dependent loops). *)
let ct_of_scheme = function
  | Scheme.Cte | Scheme.Raccoon | Scheme.Mto -> true
  | Scheme.Baseline | Scheme.Sempe | Scheme.Sempe_on_legacy -> false

let build scheme workload =
  Harness.build scheme
    (match workload with
     | Microbench { kernel; width; iters; _ } ->
       Microbench.program ~ct:(ct_of_scheme scheme)
         { Microbench.kernel = kernel_named kernel; width; iters }
     | Djpeg { format; _ } -> Djpeg.program (format_named format)
     | Rsa _ -> Rsa.program)

let inputs = function
  | Microbench { width; leaf; _ } ->
    (Microbench.secrets_for_leaf ~width ~leaf, [])
  | Djpeg { format; blocks; seed } ->
    Djpeg.inputs (format_named format) ~seed ~blocks
  | Rsa { key } -> Rsa.inputs ~key ~base:Rsa.base ~modulus:Rsa.modulus

let run ?machine ?forgiving_oob ?observe ?sink built workload =
  let globals, arrays = inputs workload in
  Harness.run ?machine ?forgiving_oob ~globals ~arrays ?observe ?sink built

let describe = function
  | Rsa { key } -> Printf.sprintf "rsa key=0x%04x" key
  | Djpeg { format; blocks; seed } ->
    Printf.sprintf "djpeg %s blocks=%d seed=%d" format blocks seed
  | Microbench { kernel; width; iters; leaf } ->
    Printf.sprintf "%s W=%d iters=%d leaf=%d" kernel width iters leaf
