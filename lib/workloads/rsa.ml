open Sempe_lang.Ast

let key_bits = 16
let base = 1234
let modulus = 99991
let default_key = 0x1234

let modexp =
  {
    fname = "modexp";
    params = [];
    locals = [ "r"; "bb"; "k" ];
    body =
      [
        assign "r" (i 1);
        assign "bb" (v "base" %: v "modulus");
        for_ "k" (i 0) (i key_bits)
          [
            assign "r" ((v "r" *: v "r") %: v "modulus");
            if_ ~secret:true
              (idx "ebits" (v "k") =: i 1)
              [ assign "r" ((v "r" *: v "bb") %: v "modulus") ]
              [];
          ];
        ret (v "r");
      ];
  }

let program =
  {
    funcs =
      [
        modexp;
        {
          fname = "main";
          params = [];
          locals = [];
          body = [ ret (call "modexp" []) ];
        };
      ];
    globals = [ "base"; "modulus" ];
    arrays = [ { aname = "ebits"; size = key_bits; scratch = false } ];
    secrets = [];
    main = "main";
  }

(* Montgomery ladder with select-based conditional swap: both the square
   and the multiply happen every iteration whatever the bit, and the bit
   only steers two CMOVs. *)
let ladder =
  {
    fname = "modexp_ladder";
    params = [];
    locals = [ "r0"; "r1"; "k"; "bit"; "t"; "s0"; "s1" ];
    body =
      [
        assign "r0" (i 1);
        assign "r1" (v "base" %: v "modulus");
        for_ "k" (i 0) (i key_bits)
          [
            assign "bit" (idx "ebits" (v "k"));
            assign "t" ((v "r0" *: v "r1") %: v "modulus");
            assign "s0" ((v "r0" *: v "r0") %: v "modulus");
            assign "s1" ((v "r1" *: v "r1") %: v "modulus");
            assign "r0" (Select (v "bit", v "t", v "s0"));
            assign "r1" (Select (v "bit", v "s1", v "t"));
          ];
        ret (v "r0");
      ];
  }

let ct_program =
  {
    funcs =
      [
        ladder;
        {
          fname = "main";
          params = [];
          locals = [];
          body = [ ret (call "modexp_ladder" []) ];
        };
      ];
    globals = [ "base"; "modulus" ];
    arrays = [ { aname = "ebits"; size = key_bits; scratch = false } ];
    secrets = [];
    main = "main";
  }

let bits_of key =
  Array.init key_bits (fun k -> (key lsr (key_bits - 1 - k)) land 1)

let inputs ~key ~base ~modulus =
  assert (key >= 0 && key < 1 lsl key_bits);
  assert (modulus > 1);
  ([ ("base", base); ("modulus", modulus) ], [ ("ebits", bits_of key) ])

let reference ~key ~base ~modulus =
  let r = ref 1 in
  for k = key_bits - 1 downto 0 do
    r := !r * !r mod modulus;
    if (key lsr k) land 1 = 1 then r := !r * base mod modulus
  done;
  !r
