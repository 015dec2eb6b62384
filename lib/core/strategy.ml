type encoding_mode = Bare | Intermediate | Packed
type three_q_mode = Decompose_to_cx | IToffoli | Direct_ccx | Retarget_ccx | Via_ccz
type cswap_mode = Cswap_decompose | Cswap_direct | Cswap_oriented

type t = {
  name : string;
  encoding : encoding_mode;
  three_q : three_q_mode;
  cswap : cswap_mode;
  disruption_aware_routing : bool;
  choreograph_slots : bool;
}

let qubit_only =
  { name = "qubit-only";
    encoding = Bare;
    three_q = Decompose_to_cx;
    cswap = Cswap_decompose; disruption_aware_routing = true; choreograph_slots = true }

let qubit_itoffoli =
  { name = "qubit-itoffoli"; encoding = Bare; three_q = IToffoli; cswap = Cswap_decompose; disruption_aware_routing = true; choreograph_slots = true }

let mixed_radix_basic =
  { name = "mr-ccx"; encoding = Intermediate; three_q = Direct_ccx; cswap = Cswap_decompose; disruption_aware_routing = true; choreograph_slots = true }

let mixed_radix_retarget =
  { name = "mr-ccx-retarget";
    encoding = Intermediate;
    three_q = Retarget_ccx;
    cswap = Cswap_decompose; disruption_aware_routing = true; choreograph_slots = true }

let mixed_radix_ccz =
  { name = "mr-ccz"; encoding = Intermediate; three_q = Via_ccz; cswap = Cswap_decompose; disruption_aware_routing = true; choreograph_slots = true }

let full_ququart =
  { name = "full-ququart"; encoding = Packed; three_q = Via_ccz; cswap = Cswap_decompose; disruption_aware_routing = true; choreograph_slots = true }

let mixed_radix_cswap =
  { name = "mr-cswap"; encoding = Intermediate; three_q = Via_ccz; cswap = Cswap_oriented; disruption_aware_routing = true; choreograph_slots = true }

let full_ququart_cswap =
  { name = "fq-cswap-basic"; encoding = Packed; three_q = Via_ccz; cswap = Cswap_direct; disruption_aware_routing = true; choreograph_slots = true }

let full_ququart_cswap_oriented =
  { name = "fq-cswap-oriented"; encoding = Packed; three_q = Via_ccz; cswap = Cswap_oriented; disruption_aware_routing = true; choreograph_slots = true }

let fig7_set =
  [ qubit_only;
    qubit_itoffoli;
    mixed_radix_basic;
    mixed_radix_retarget;
    mixed_radix_ccz;
    full_ququart ]

let all =
  fig7_set @ [ mixed_radix_cswap; full_ququart_cswap; full_ququart_cswap_oriented ]

let ablate ?(disruption = true) ?(choreography = true) t =
  let suffix =
    (if disruption then "" else "-naive-routing")
    ^ if choreography then "" else "-no-choreography"
  in
  { t with
    name = t.name ^ suffix;
    disruption_aware_routing = disruption;
    choreograph_slots = choreography }

let uses_ququarts t = t.encoding <> Bare
let pp ppf t = Format.pp_print_string ppf t.name
