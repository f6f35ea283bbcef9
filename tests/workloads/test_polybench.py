"""Tests for the Polybench trace generators."""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ConfigurationError
from repro.core.xmemlib import XMemLib
from repro.cpu import trace as trace_mod
from repro.cpu.trace import MemAccess, TraceBuilder, XMemOp, count_events
from repro.testing.oracles import reference_pack_col, reference_pack_row
from repro.workloads.polybench import (
    FIGURE4_KERNELS,
    KERNELS,
    Layout,
    common,
)
from repro.workloads.polybench.common import (
    ELEM,
    Array,
    pack_col,
    pack_mm_block,
    pack_row,
    row_segment,
    tiles,
)


class TestCommon:
    def test_layout_no_overlap(self):
        lay = Layout()
        a = lay.array("a", 16, 16)
        b = lay.array("b", 16, 16)
        assert a.base + a.bytes <= b.base

    def test_layout_guard_gap(self):
        # Arrays never share a 512B AAM chunk.
        lay = Layout()
        a = lay.array("a", 3, 3)
        b = lay.array("b", 3, 3)
        assert b.base - (a.base + a.bytes) >= 512

    def test_array_addr(self):
        arr = Array("x", 0x1000, 4, 8)
        assert arr.addr(0, 0) == 0x1000
        assert arr.addr(1, 2) == 0x1000 + (8 + 2) * 8

    def test_row_segment_line_granular(self):
        arr = Array("x", 0, 8, 64)
        evs = list(row_segment(arr, 0, 0, 64))
        # 64 elements * 8B = 512B = 8 lines.
        assert len(evs) == 8
        assert all(isinstance(e, MemAccess) for e in evs)
        # Work accounts for every elided element.
        assert sum(e.work for e in evs) == 64 * common.WORK_PER_ELEM

    def test_row_segment_unaligned(self):
        arr = Array("x", 0, 8, 64)
        evs = list(row_segment(arr, 0, 3, 10))
        assert sum(e.work for e in evs) == 10 * common.WORK_PER_ELEM

    def test_tiles_cover_exactly(self):
        covered = []
        for rng in tiles(100, 32):
            covered.extend(rng)
        assert covered == list(range(100))

    def test_check_params(self):
        k = KERNELS["gemm"]
        with pytest.raises(ConfigurationError):
            list(k.build_packed(0, 1))
        with pytest.raises(ConfigurationError):
            list(k.build_packed(16, 32))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            common.register(KERNELS["gemm"])


class TestKernelRegistry:
    def test_all_twelve_registered(self):
        assert set(FIGURE4_KERNELS) <= set(KERNELS)
        assert len(FIGURE4_KERNELS) == 12

    @pytest.mark.parametrize("name", FIGURE4_KERNELS)
    def test_footprints_positive(self, name):
        assert KERNELS[name].footprint(16) > 0

    @pytest.mark.parametrize("name", FIGURE4_KERNELS)
    def test_baseline_trace_has_no_xmem_ops(self, name):
        trace = KERNELS[name].build_packed(16, 8)
        assert all(not isinstance(ev, XMemOp) for ev in trace)

    @pytest.mark.parametrize("name", FIGURE4_KERNELS)
    def test_xmem_trace_has_ops_and_same_accesses(self, name):
        k = KERNELS[name]
        base_mem, base_work, _ = count_events(k.build_packed(16, 8))
        lib = XMemLib()
        mem, work, xmem = count_events(k.build_packed(16, 8, lib=lib))
        # Hints are supplemental: the memory access stream is identical.
        assert (mem, work) == (base_mem, base_work)
        assert xmem > 0

    @pytest.mark.parametrize("name", FIGURE4_KERNELS)
    def test_total_work_independent_of_tile(self, name):
        """The paper "ensures the total work is always the same"
        across tile sizes; our traces must too (trmm and the stencil
        boundary rows may differ in *memory events*, never in work)."""
        k = KERNELS[name]
        _, work8, _ = count_events(k.build_packed(16, 8))
        _, work16, _ = count_events(k.build_packed(16, 16))
        assert work8 == work16

    @pytest.mark.parametrize("name", FIGURE4_KERNELS)
    def test_addresses_within_footprint(self, name):
        k = KERNELS[name]
        bound = 0x10_0000 + 4 * k.footprint(16) + (1 << 20)
        for ev in k.build_packed(16, 8):
            if isinstance(ev, MemAccess):
                assert 0x10_0000 <= ev.vaddr < bound

    def test_xmem_ops_replayable_through_lib(self):
        """Every XMemOp a kernel emits must execute cleanly."""
        k = KERNELS["gemm"]
        lib = XMemLib()
        for ev in k.build_packed(16, 8, lib=lib):
            if isinstance(ev, XMemOp):
                getattr(lib, ev.method)(*ev.args)
        assert lib.xmem_instruction_count > 0

    def test_gemm_trace_deterministic(self):
        k = KERNELS["gemm"]
        a = [(e.vaddr, e.is_write) for e in k.build_packed(16, 8)
             if isinstance(e, MemAccess)]
        b = [(e.vaddr, e.is_write) for e in k.build_packed(16, 8)
             if isinstance(e, MemAccess)]
        assert a == b

    def test_gemm_has_writes(self):
        k = KERNELS["gemm"]
        assert any(e.is_write for e in k.build_packed(16, 8)
                   if isinstance(e, MemAccess))

    def test_tile_reduces_unique_line_span_per_phase(self):
        """Smaller tiles touch fewer distinct lines between remaps."""
        k = KERNELS["gemm"]
        lib = XMemLib()
        spans = []
        current = set()
        for ev in k.build_packed(32, 8, lib=XMemLib()):
            if isinstance(ev, XMemOp) and ev.method.startswith("atom_remap"):
                if current:
                    spans.append(len(current))
                current = set()
            elif isinstance(ev, MemAccess):
                current.add(ev.vaddr // 64)
        assert spans
        assert max(spans) < 32 * 32  # bounded by the block, not N^2


def columns(packed):
    return packed.vaddr.tobytes(), packed.meta.tobytes(), packed.xmem


# Arrays at element-aligned bases that need not be line-aligned, with
# rows that need not fill whole lines.
ARRAYS = st.builds(lambda base, rows, cols: Array("x", base * ELEM, rows,
                                                  cols),
                   st.integers(0, 1024), st.integers(1, 6),
                   st.integers(1, 40))


@st.composite
def row_calls(draw):
    arr = draw(ARRAYS)
    return ("row", arr, draw(st.integers(0, arr.rows - 1)),
            draw(st.integers(0, arr.cols)),
            draw(st.integers(0, 2 * arr.cols)),
            draw(st.booleans()), draw(st.integers(0, 5)))


@st.composite
def col_calls(draw):
    arr = draw(ARRAYS)
    return ("col", arr, draw(st.integers(0, arr.cols - 1)),
            draw(st.integers(0, arr.rows)), draw(st.integers(0, arr.rows)),
            draw(st.booleans()), draw(st.integers(0, 5)))


@st.composite
def block_calls(draw):
    n = draw(st.integers(1, 12))
    lay = Layout(base=draw(st.integers(1, 64)) * ELEM)
    a, b, c = (lay.array(name, n, n) for name in "ABC")
    k0 = draw(st.integers(0, n - 1))
    j0 = draw(st.integers(0, n - 1))
    kt = range(k0, draw(st.integers(k0 + 1, n)))
    jt = range(j0, draw(st.integers(j0 + 1, n)))
    return ("block", a, b, c, draw(st.integers(0, n)), kt, jt)


CALLS = st.one_of(
    row_calls(), col_calls(), block_calls(),
    st.tuples(st.just("access"), st.integers(0, 1 << 20),
              st.booleans(), st.integers(0, 5)),
    st.tuples(st.just("work"), st.integers(0, 9)),
    st.tuples(st.just("op"), st.integers(0, 9)),
    st.just(("len",)),
)


def apply(out, call, reference):
    """Append one drawn call: the production emitters, or the per-line
    reference loops of :mod:`repro.testing.oracles`."""
    kind, args = call[0], call[1:]
    if kind == "row":
        (reference_pack_row if reference else pack_row)(out, *args)
    elif kind == "col":
        (reference_pack_col if reference else pack_col)(out, *args)
    elif kind == "block":
        a, b, c, rows, kt, jt = args
        if not reference:
            pack_mm_block(out, a, b, c, rows, kt, jt)
            return
        for i in range(rows):
            reference_pack_row(out, a, i, kt.start, len(kt),
                               work_per_elem=0)
            for k in kt:
                reference_pack_row(out, b, k, jt.start, len(jt))
                reference_pack_row(out, c, i, jt.start, len(jt),
                                   write=True)
    elif kind == "access":
        out.access(*args)
    elif kind == "work":
        out.work(*args)
    elif kind == "op":
        out.op(XMemOp("atom_activate", *args))
    else:
        return len(out)


class TestSegmentExpansion:
    """The builder's segment table expands to the per-line loop's
    stream exactly: same columns, same XMem op positions."""

    @settings(max_examples=300, deadline=None)
    @given(row_calls())
    def test_pack_row_matches_reference(self, call):
        got, want = TraceBuilder(), TraceBuilder()
        apply(got, call, reference=False)
        apply(want, call, reference=True)
        assert columns(got.build()) == columns(want.build())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(CALLS, max_size=25),
           st.sampled_from([1, 2, 7, trace_mod.FLUSH_LINES]))
    def test_interleaved_calls_match_reference(self, calls, flush_lines):
        """Flush points (every other append, ``len``, the line bound,
        sliced expansion) keep the stream order and op positions."""
        got, want = TraceBuilder(), TraceBuilder()
        with mock.patch.object(trace_mod, "FLUSH_LINES", flush_lines):
            for call in calls:
                assert (apply(got, call, reference=False)
                        == apply(want, call, reference=True))
        assert columns(got.build()) == columns(want.build())

    def test_wide_block_is_expanded_in_bounded_slices(self):
        """A tile-80 gemm block exceeds the line bound: it is expanded
        in slices, and the stream is unchanged."""
        lay = Layout()
        a, b, c = (lay.array(name, 80, 80) for name in "ABC")
        got, want = TraceBuilder(), TraceBuilder()
        apply(got, ("block", a, b, c, 80, range(80), range(80)), False)
        apply(want, ("block", a, b, c, 80, range(80), range(80)), True)
        assert len(want.vaddr) > 4 * trace_mod.FLUSH_LINES
        assert columns(got.build()) == columns(want.build())


#: sha256 of ``vaddr`` + ``meta`` bytes + the XMem side-table (op
#: positions and calls) of each kernel's trace, as the per-line
#: emission loop produced them.  ``-``: no XMemLib, ``x``: with one.
#: The grid has rows that are not line-aligned (n = 13, 17, 50), tile
#: 1, tile = n, tiles that do not divide n, and the (96, 48) co-run
#: size; doitgen's (96, 48) trace (about 21M lines) is left out.
PINS = """
gemm 13 1 - 43a7894de11773b40c9781fb545ce9060b85d64ba9be555193310516f72fc118
gemm 13 1 x 0a560d92727a96a6dd5e551268a1ad23ab888b06f9dcf40a313d3ca546357d5f
gemm 13 5 - 589b23903ad7f44bd3bf8ebffb8bf84dcb8b224c57e679e69137caaba0eb8638
gemm 13 5 x 380a745f780b7c6b399a638d3ff1271463e2ef178322bbc8265d184144e69137
gemm 13 13 - c4c1250b3513f595127ca0f885814f952ac3ee20796842c7a3509befd242b855
gemm 13 13 x 315ffc2f4bab9efeda115d8750d2b5f237e3230ca5ff6ee055bcd36309ccb42d
gemm 17 1 - 7c7314600019169c63f77a965d63e5588d69d0152391c14c13b3225621a92887
gemm 17 1 x a21fb4358575af76436e7d954c348f0e4cc0043b80d464aa8d690c6ee6b3a670
gemm 17 4 - 26b28da2ea1e735cf3adc8dac4673f3a6764daf0bc51e126effba1fe06f1a9f7
gemm 17 4 x fcdcdc47c25455cd8b12a455c43482f9ff5ab1fd14a347a81ee830d929fa1551
gemm 17 17 - 58e82d6351efb8670038de0f9036aa1512aded3cad1e863be33edb308c9f97fd
gemm 17 17 x bc099fafb3ce79712eb79f1b201b9be96942ab6d69a0457af1b30dc800096b72
gemm 50 16 - 6ed97f266ac85cfe00abc0d2dd3cffc7740c1d4975e6d2d40e0fb8cf13db584a
gemm 50 16 x ae5c7648eb1979b9de62467ff0f88fc8d7d7a49c81ec1d1421096aa378f648b3
gemm 50 50 - 85a62e7d5c9ca8b1b3ddbbbe450c46a4029a7bc7e91663e135ed7979e22a8e5b
gemm 50 50 x cad17f05952859fb6d8b95d0003434735b1fd7dcfd82e23e9a2ec4b8997b9c1b
gemm 96 48 - 61c101ba0f2e4f4f09dad18cebc51b0b2a961a11223064e3e9ba08a7d1abb842
gemm 96 48 x 4f19950f8e50238d9902816c344da89b72cf96697fedc01840cef827fdfc51bf
2mm 13 1 - 35ee9c55a59b71038e06f614c7bdcc57a6ee8c723862c712c36ff0d4a3a710f3
2mm 13 1 x 55afbf7ca6ca968917ea587082ff1d07b1ec20fa38dcab56cf1ba65e1b057251
2mm 13 5 - 6460e7b0e7a889b8dc04f294ba3050865b449935833cf4f55797be5520e76ddc
2mm 13 5 x 34baa8adf494953ec3c9134d6353fcab0f5c4ce4a52cccd44903f671404c25f6
2mm 13 13 - 79c1eb09100a05aefd19d6fb64f02b4d33b9e8746535dabad40ecb81b7127d41
2mm 13 13 x 55aae7a04fed34d5e15c75fa565b3a8c00ffbeddb5297d9b43e4d9ee9171b3d3
2mm 17 1 - 811a7fb5ac50486d75922e7362e41889d5fb09010d380aaab7b23cd00f9ce556
2mm 17 1 x fb5dd1e2f1f47e0d6ce357ca4638a3c35d3f7243f44cfd2ec95cb2c3dac9b8f2
2mm 17 4 - 1cd6245352b0d716a8c7b7fe7f833268a4d8c2962f562e1b9cfdca11e1fb50bf
2mm 17 4 x 09ba25ece8ccc4145575f1fc8dd93181dadaf1550134dbc84706f7a0391ab50d
2mm 17 17 - 555d8a15b15b91ca7fa0a5f2b4b00927bb6d07965ae2e56e8ec80976e87d48a7
2mm 17 17 x 6cd78608dfc2615f8dd328968345e513f869f4df158f7da8d57b205953056a28
2mm 50 16 - 5346e10102b19063c52775044f99946f61e7016b304ddc6d656dd60d33e1bc02
2mm 50 16 x 322b20fae5864a5588904691ff1fa279fb0e7b0456ae4269d8deceab31872f5b
2mm 50 50 - 31f1b5a2eb1bdbfec5e97c90d2c29a638835b7f1fede2bbcd324865aca5be018
2mm 50 50 x 20180a1b5c292ad721fa81f276c4d2209ca04c5869ebe8e7428b955551702f33
2mm 96 48 - 20e7c144380634c964a248b4428bde6861a0edb0bf8e538b63526abdc934a308
2mm 96 48 x 6c22f2b0ae03366b54b1d6da41275d2e327812428ab5a2c25f1e977f08c1463c
3mm 13 1 - f1da45b209e672a3bca68714d0bdb49de0eb6c0efbd0790f09313930053dc428
3mm 13 1 x aa737251ce4e6111c98180262a37c1e8b54d8e6280078282692dff0ec4c5be35
3mm 13 5 - 72dd8bdaceba593dab8e1293bdb5f07b20dad9e461e382f7bb512f211aaf6dfc
3mm 13 5 x 8ff68282ca7fb2aec443ede0e7d1e26174038a1e4d742685245cc6e131d9d176
3mm 13 13 - c71b0ae293b53011cd0b7b9b6efdb39766f94d6307d42b776f90b4f7949677af
3mm 13 13 x 909da26d51b0c466f4d7fbfdcd4bf8c11112361c26f19d489b382c1185d16fba
3mm 17 1 - d1b18a9cfb006912989dfeb4e2b387abb9d28de40867fe51bdc4b8025f4fe564
3mm 17 1 x 8b9620fce31da7f7be64dd39fdbb7c30c96b2aa3427d6c5e87ba8ac172195e4b
3mm 17 4 - 84fd42d5e1f59267cac4f40b9ddfe1ba2fb7381cffac5f754ddd9ebc0fe36bb4
3mm 17 4 x 0e6cbdffa75b2454bc55f4ba3e6bb21d7a27841d584396a1bcb4d9ae69c965c8
3mm 17 17 - 3b0bed4844e57b9f271cf757febd083153def478fc43aebdb060877e79a4ff14
3mm 17 17 x f7475ab2b053d20df9587504b0babda03dc50669017c5644eff0d9c1f78ab952
3mm 50 16 - c4835a081343499a2460289d64da7792d05d2fc1445401113a9db6b559f5553a
3mm 50 16 x c47084c7114bc22b844ba7918202c4658dbd01587b45453d256d5b6b0b3cb1ac
3mm 50 50 - 6ccc40b741eb2c69c820677943e2e6c294499196f35caffc2511f41a4a8bdb65
3mm 50 50 x a60c2245bbeb5ecaa7bd8ec49fe850dca5bc60e622d26a3351a20d47e8b41f7c
3mm 96 48 - 388fe5b265f971db71ea101bb7da8cce96d0d3ff3250c3539531664005ed656c
3mm 96 48 x 672df85cfe74ea932d830d06eac717d7a94755c767654d5a974f198bf6f35e03
syrk 13 1 - af864e32aaaa434e6a510f477959cbccff70c9de759cfd1a1a6dd2ee4d9adbff
syrk 13 1 x 1dd5117694e571f37e3095667329f885f420869d3cf46506a7b46001a4ecf6e1
syrk 13 5 - 42a47ff75f905054980173cb1c4a169dfe257300bb0f8f0b960aa3cad81b58cc
syrk 13 5 x b7ec7ae9b8dfd40e211a109682ef982b2ae7be8ad68cfb13448adf5d7da40572
syrk 13 13 - ca87b4a6d44fba335f431967a6d962e0ab9eb0a66302141e2058c5d23fcf6715
syrk 13 13 x c2087404aa3f97369057694bc2758fcdaa1fe6e6c5b7c7d23d664dbb88c577ae
syrk 17 1 - f92bf19c6ccf04df7babb68b80ed3dff4f14c437483cb0adc8f844d5df9348ce
syrk 17 1 x 6dc3c5f895b2813e0bebaaa06251fb5288ea5f82bba37052c9f16c3f6daecd4c
syrk 17 4 - c51ac2e0bb14f0cfad284d92fa2247a3107106a75d61cf9de99ea9fb96c81ec9
syrk 17 4 x 6650c0a485e96112b875ef86229ae4536a6cd4fafc441f2e36739d4fef101322
syrk 17 17 - b5984d35cbf4890cea1513d1e2223904375b9d5af74c3b0c054c595c551f1a67
syrk 17 17 x 92030bccb47effdf9328555a5986d1a78848beff738737e33a1ec8acdca60feb
syrk 50 16 - e85b2c9143c9db4334a231b6627771337a74fdb62b65498ac7606e6eb381f3b8
syrk 50 16 x 6f9528d99f5732229538a52c738e965daad62f95360f517de19d8057df0e53ff
syrk 50 50 - 95d1249f9572bf90279e7562b7743f4f42e7faf67cb18480eb0d0cb28eca94e4
syrk 50 50 x 188d7022b1fd1bdd24f617c810c3e634e7555ded8dc638e16bed165ab4be2868
syrk 96 48 - e2d2727ca60d85f6739d7517dcc243937009792bbbcb876c0a05cddeecf83365
syrk 96 48 x 9774e22bb914dfbe2314aaff639c5f7cb9987a97e2bfab944e568e26b593e602
syr2k 13 1 - e40b6513239ca9e3bb448a6b744c9fb6591e5bbcd2921703e9c992760f56ef53
syr2k 13 1 x 62a97f151ddef4aedbcb108e91044cfa7fbaccb6e2ce199a8f7b524e1968fb0e
syr2k 13 5 - d3e9fe408e8453a119d760e307e8d89c1effa0d2edb6394e7b5140ac842c83a3
syr2k 13 5 x 95ef58db1355b0ef19b534be344992360fcef17c8671eca5ef5cf0ed587fec8a
syr2k 13 13 - 49f75962d5c49bf35fa46f0dcc789133c153296cf801e4619f09865e7f50c277
syr2k 13 13 x bc9fa1d322c0de3deae6b9d477b224a9f88081e3771ba9ec9d6c80df7525201f
syr2k 17 1 - 47cb7af9c9e74cbc0909fb30959e193a1900f2b3afbfce2959fd0bd28d1238d2
syr2k 17 1 x a18a1e2a506e6d4ec035f3dded968084c8b50d9da8eb9314f790a893f3b14de6
syr2k 17 4 - bdda387dcc62ec97e58094a8d77490f22490f2e3c7cba5c9f617651b0ab97a1c
syr2k 17 4 x 636945453224ab44bf80c19d49466fadac5729bf4f823802bbf42fcfef0afa4d
syr2k 17 17 - 7bcaa52eb6ee8334e3a067866b0587fdc3ed7f78cdfdfec889bde889c1d639d0
syr2k 17 17 x 8adc3182b4f488508459cbe8e450ab6b1ec549f2c7e278d5df7e2dd4728cbd0b
syr2k 50 16 - b1fb64d4bcdbcafebfa7e3ed0447d7f28bcdc41a98620fc8e7666ebfe1c5a883
syr2k 50 16 x bc9a6203aa6d9369713922d729533432fbaa8601ce84ace990ae8e759800c87e
syr2k 50 50 - 0efee7cfbb45f9eb787ac9f4ee7aa2ddf3e0f310f83a6925dbcf35b10966f4f7
syr2k 50 50 x 519cde778f2d91ee2da0daf90d12d27c76e297c0687e9aee19dc229d0fab3604
syr2k 96 48 - c11c5698fdd8b72b18b1df5c72407eb698bc7520b49a360e5e2404db0a0ba5f8
syr2k 96 48 x 8bd77db1eada41663ff0c601b5ce86fbe791bce931c469bc32a9e0190270ff3f
trmm 13 1 - 96575670a49073f52cf9d259e070628c4a02ceb347a20b5e4d5dd4a0ca030bb1
trmm 13 1 x ae809a1fecd064d5f859dc852f6ec491c4a26803abd3d001c40f6e517f2ccd1e
trmm 13 5 - 86d62948e0f8a809d08d8b766a5b1b448d626d4c1f941e044891a634490d5e9f
trmm 13 5 x a14ef235b897d10f4120220263b301ee33924607ea990591f56355bd84861a9a
trmm 13 13 - 05c227b4c931e51c873ac70edb011e8e9ff65d3ecec428460e84738a99fd14d8
trmm 13 13 x c7072bf1dfdd58d80903d5a86099e5c650137be64b6a9e477784b3a8ccb6907b
trmm 17 1 - 8d837442b89ae58cd72dffe83957541bdf5066e586e9de73aa2a175cb4a75fa3
trmm 17 1 x a262e71df5b526d617b24a23800948b847f3cbe597faee9f72fba8dc96ec9cd1
trmm 17 4 - 2df35b67aa830f32e24c39024fcdc893aa412413c0f8703d237da667de2c0017
trmm 17 4 x ecfdba0898c1f8bf748758f4fa115408d459dcc2391f6db71b69b38feeaa653f
trmm 17 17 - 99dcf00a8fb430107431fd0ba5276c0c27a3a5aba5b712c9eb2a45e1ec5d99cf
trmm 17 17 x d634dced6e073303f09df93f0228aa05b0b1d4c3830751ffdf5a332c451b3e68
trmm 50 16 - ede74923b5dba5b2db339e9d60f1947c1ddba07d7eb8225509f7d408a6cb80dc
trmm 50 16 x fc45fb13d63cce3c002faa66a441d660fedc72b0a2cbfd2b4593a64b54a49b17
trmm 50 50 - 1346a0c3cf9fad6801410bd51ea3699f17b2f95ccb379554764d9dd8dc560134
trmm 50 50 x 0a6fa874cbd044f2b8c2b59def9649b3739eaf57a5f6e92627b18375e0c21368
trmm 96 48 - 223cdc4925f5dae28dba1963da6c2636f7d249735aaf19abc04f3708a2ccb003
trmm 96 48 x 4c672c4c2fc3dbdf2671ae938a8f17d66369c5ba3a983234aad2cb6dda488f05
mvt 13 1 - db906f693c320e53161bdc48835cc21072d77f1db7543da29e9b59f20b941781
mvt 13 1 x d0f130a2ceba4debea93610bb06514ee065de6518a6c6ead7d96aa19b7dc74fc
mvt 13 5 - 1b7bffea4e5a35d558102296b930a5d7d503cb38e1eb48f6cba7d4458e88df96
mvt 13 5 x c81356820bb20abf4afbad9de80359cef3c1b3ed7cdb7a6fddd3f1e06c223881
mvt 13 13 - 3e54177d05ebe2bae2e453f4c380deaf4db61915778b4803d387f708c304aa31
mvt 13 13 x 8efa04749a0c9aaddefb7b95b8f58bbaf8c54c742c7ae715617a0e1c3373cf13
mvt 17 1 - 6177f237b7893c35ef62805380456e554b9ce888118a96ce0adc6b0b2926cc0a
mvt 17 1 x 6159014452ca37764cfd6c254716125649ca55573c2aad661a1ca1b189efd228
mvt 17 4 - 842b0040e4b721b58fdcef5022b31156421a0c45ce656c1f816cbf7e38f81c44
mvt 17 4 x 2f2dcffe313b6f520fe5c2dda2280a6dc431529113b23aa1c1e5dd7a227caf65
mvt 17 17 - d9df10f606b85dff08345b28817bdd8dc081567c6f22a31b414d55a79b6aa51c
mvt 17 17 x e60ce55dd63e369f10c54d279f6113e2b67d77ed5f4b7576f9ef717770418d93
mvt 50 16 - a92af672ddaad3da6954c4d4c6b6acd8dacc92bc1101c73c88d2355d3072aca3
mvt 50 16 x 5dede6ca7e1764d383bd43fdacc49eba7f23f393050008e6a8351ce74452fcd7
mvt 50 50 - 6365b7dc60862d4359987be199e6efdba7a8ae9ecd6a14623f245ab2231f7009
mvt 50 50 x fae9cddf949f5820116467ea9951205f87f9dfdcc42a9b820b3589cd5718f416
mvt 96 48 - 65f926f568e7ddccf844921713d21782575e0c6df7afdb3420249510bd737c35
mvt 96 48 x c8e63ef76d3e754be198749f4457e4a46faa1d7637b888616c70bec29177535c
gemver 13 1 - f217b3b6f3061db70b85cec9759a2aa0281962e7dd5420b6dfe3e6d6d4dea7d3
gemver 13 1 x a2b1ea7961fce1e6c25b2236e3eb2a7157002ea2c5cf4a652a0340f9a40efbec
gemver 13 5 - 8ebc863b2afcc2f6b61b9e9119fe275325e4bd68960786bf662a747f5f7f147b
gemver 13 5 x 29779614c509ced210f4db248ea7ec3053e93c0ddefe35613d3031badab9fadd
gemver 13 13 - 92119b31a316435a6913a20965639ea045389735a6b34386b8ba68d41fa38ca0
gemver 13 13 x 6c3c9f389b5914e3ee3e3eb59e96c6f0d43781296b1db814c3f56458b7a907b2
gemver 17 1 - c0867c00eee6f0426354f4a04d0cb6861695cc0c61209559da100ae2ca4922a9
gemver 17 1 x 03dca50b9a29638738aad81df39cf8ba68dc4ae1ff660f1c4f9f723efbad8600
gemver 17 4 - 27ff0b89452ac4c4fea407b794796b6f9da085d53122eeccc758547902663de0
gemver 17 4 x 74fcf87332207232e4a5a582dce6d5a60488d5d628881e923f8d001e21e4ded5
gemver 17 17 - fa66239614f2c6a214442705079fd7d1d8ed23be884b840bd41c6552f474b520
gemver 17 17 x e66800ed2aad9c8bafe174a17bb4097d63e34f382b377e8e6e101f0b24c29f8e
gemver 50 16 - e1cb64a6fd1416ec93320a5a5a600cd73e5354bf20c778e23f6c010cc5923cd9
gemver 50 16 x 4a9fc8a2a737be96ea4864fe9cb0e75e09da7d09c2f3c6c5d65a5daa07a2bb25
gemver 50 50 - 5c3129affee524bf3ffdb7fb0eab77845626f33327dd15f783c3f0778aa27398
gemver 50 50 x 95788f189655a81bb44dabaa267e4b93cf94771837d56301ebe94d3e39efd97d
gemver 96 48 - af360c28753e33fce8bc6c224237e7c1c8c2e81a23d2ac50cbb0bf2900eb836e
gemver 96 48 x 879690c56ea1c167e69f6da6113334246de0524d805d3cf53330879bc69843bc
doitgen 13 1 - 67abb674dee798cd6f4a25c7281ea8d466e96ec04ea19b95b3b5e79cb100ff6d
doitgen 13 1 x 95aa0229609ca70916aed080687684372bf1ff9c7c321477aa22acb257fd3411
doitgen 13 5 - f5e283eed1476f535aac6f18bb00a97ae2d3c963efab0ade6e47c9440e4f783f
doitgen 13 5 x 8093b265b44cd5d21986545f4d34f3af1df450a12c7082caa43e63e630080a8a
doitgen 13 13 - 8b92ad8f42d347ed6de9b92deaa43effc7d95e42fa41916d081a45740bc4f702
doitgen 13 13 x 58852ec69abcd61488806884b30632c355b12d36a5b2d7e38206f0df36e1244f
doitgen 17 1 - 005e5359d3384dc44413e6b990531ddddc3cfff1a938f5ae18197b582388645f
doitgen 17 1 x f8ac2c433e6724e7b07f82148438c5580a4f29d0ece0506532d2792be45bec0d
doitgen 17 4 - aebe82c4eacd666fc880446716b7f753416e5d537a6f58bfc5350ec463b35831
doitgen 17 4 x d58f50ed606d6cee020ef5755c881ce3ecbf97ea005f887a4e391ceeec718e08
doitgen 17 17 - d884eff58192b822e896a2c6465cf52c897d2d5299b22589cd949c07302b6238
doitgen 17 17 x 0ea0011f3f74f0676b76bc4478bfb29d0bf063f421d1f2229f6849b0023d81ac
doitgen 50 16 - 867a49233429c1b92a36abb3eacd39a10f93c4274513d2a439d9f04c5747b157
doitgen 50 16 x e51bcbc3d13f959519f0fe45e76594516b313cc4e2410ec9043ac90a9f5b24cf
doitgen 50 50 - 8b589052ef419d5c81395464b012b87f1bf527fc7577d0cfcffac481ffb3b67d
doitgen 50 50 x 1fd6f830a3b8b2f2eaee8656e293c791b990d01c776502d2c196befc1559cf04
jacobi2d 13 1 - 28f2bad510d2fdf7eb19914622209de2eaae1a0166903f85f0818f5a6ff06990
jacobi2d 13 1 x e6e27fc2e2136f5ce6ea3c03ef4c07ab457b3f87f6e258ad99d820affd9974dc
jacobi2d 13 5 - 7f09b2b9ee8628ff50e4977dc0034381c1068f97858532e49c01ea479a998e89
jacobi2d 13 5 x 15b6105697c2a603d36bed6fd233d7b6a06333866a1640885635db5fb045f51d
jacobi2d 13 13 - 6b1dc0c52894c88f142dbf1734649edda1c764bcf2b8e160356c80c8aa229ac8
jacobi2d 13 13 x 5c04548f5f4c67002f4480c4af95903304d96b9decb48ce1a6a5dd906ebc5164
jacobi2d 17 1 - 8372c837f50c369d8dc1920175cff1f929b32354983cd55a605e3562866a2ca6
jacobi2d 17 1 x b5a48da14850432c716f13d569f971dba98bd96335b96fe8fc3cb550e21d7f22
jacobi2d 17 4 - 451c053196ec0204201089a0de7af0893364136709b5e372d49777b747c2ebef
jacobi2d 17 4 x 2258c0b239e87a03072a3d1baf39ebc63804cef0f3601cea4e9f8877c5980033
jacobi2d 17 17 - 5888557a9d0071aa4787cf3dfc18b166e0a5b776564403a9a11b3372085f2421
jacobi2d 17 17 x b1dabf973a8f54cbe5fa588f8d56c3400163f3ebdd193b0b73ca8e73bf5a779a
jacobi2d 50 16 - 6a070c36428d1c745a0a8a7647b6fb802b12438f8beb818004a854cdfe98130e
jacobi2d 50 16 x 679b3ec0cd5a4f940d1dcb2a41bad180f7ce58be793cb4df60c6dbce6eb910ae
jacobi2d 50 50 - 822d81b1912cb814a581cdc0f7b63adeb61492b2181449a3c174d29a978c578c
jacobi2d 50 50 x 769280604f88bfeea7defb6ac08226069fb595ffef9cdce2fb0680388fe8a69f
jacobi2d 96 48 - 2fb38607b4b288b71cc6980330a2a85110c2e93312573c7c3aaf0a24a68c269c
jacobi2d 96 48 x 9e87b7ae9165dfd45f4d9de24daced7d3c287cb78761856a3ae237111a373511
seidel2d 13 1 - 4a694b0b1a9c6f79599f78219cbeb369ec6a6b08dbe2e1b4077e3c9c06342880
seidel2d 13 1 x a6694d1395846d5f4268d915d12f9335729acf0e72f767e0c5338f5f6d1b8d14
seidel2d 13 5 - 64258a7fe884dfe6ddce8ad68f4f48310968ed7fb7cd43777d0a6824eb2f2194
seidel2d 13 5 x c707167db4f0ef8aebfedcab0577177a24935891f4af1f217ca5a64179aec23e
seidel2d 13 13 - f5534cd5be0ff4de54e0589d6dd9ae9c9e421217b0954b7c625b88d20485a97e
seidel2d 13 13 x 7bd21f9cbdd7725a84916750b7b13f12ffcb35294624dc44158da0a9d8a2fdcc
seidel2d 17 1 - bd8b7597ed47a77f4083d8130b7a0ca3e480c432ef1cd2ffd8511c077abe69ae
seidel2d 17 1 x b9d95cf9e4f38d217eb9662673ef660598947466e760c1cf7a39426c7703c0d8
seidel2d 17 4 - 947d0c3fa82d2f474bb0c8bd4c92220675911f3bca27df571633c88c89239cd6
seidel2d 17 4 x 0d44f19985ccef4dd3c9490550616c3758d12212fddfad1d514b2b6778df42f9
seidel2d 17 17 - fa9ab86f23296344f3a5adbcb17a78c7551e613f4a68de992fcb69561bbafd10
seidel2d 17 17 x 63d8d3ccbffd2bdba35396a2154077ccfa6833f9e594e6a2fe29412380558c4c
seidel2d 50 16 - 92c564a469ff2bc48abbd836adbd8cafada877723a980c06c690346c41acaab4
seidel2d 50 16 x 383adb8f7a103327c5a7db99d36036ea80bb2d694718de038e7fbf18ac1c58b3
seidel2d 50 50 - 58088be39aecdf227c975987cd996e15081544112b6a40e2b10304284e8a3eb6
seidel2d 50 50 x 335678c69569e75e699287a71790a7e1d7daace2ed8453b71ec0f669ed9046db
seidel2d 96 48 - fb63b6806298c49e14bdaa7d03abe206fdb54fc5004df92c41a2be5628bc3f2c
seidel2d 96 48 x a02352eb5d6ecc164c6e8a071b5895d68f410e50af12bd7566bcdcb119520432
fdtd2d 13 1 - 99d08aaa5c9b699d09b3a9fe113774ee4271fa16c4049d3784b0b92aad8aaaeb
fdtd2d 13 1 x e3d0dd210b273dfb7431103a141c2c0adc5cb18014cce3255be44b6a2471e98f
fdtd2d 13 5 - b56ec8bd9a681588285f1923ab4e25ce3fb242fe645cb1fa5ae9e31370e123eb
fdtd2d 13 5 x 7dd4cf6f1f1f8ed1370557f12dc5c57971d12597de732ae7947540a0f3f86311
fdtd2d 13 13 - 3298b2136364fba99994f0a54ef076cd2e68e957be8cb06cb1a7bfa8b3cd6f1d
fdtd2d 13 13 x 5dd78ad774615815e83cc09c5a617c4bb047ad04a088dc7663124065b6fd4874
fdtd2d 17 1 - 6ef45992263259ddcafaeeb5e30e33b8cddd7d9559e925806975279c3bd9a3bc
fdtd2d 17 1 x 0678fe799bfad36604551c211dc9c1700d129b384a510ff76fb956b041e4d8f8
fdtd2d 17 4 - f600b3e1d54f97b5d9ced08254dc2143b4c5276acb39aae49897fe8203db411e
fdtd2d 17 4 x 969f38e17057ac967a2e2ecbe7bf5b779bbe629634ae3699d70c3dd708b47144
fdtd2d 17 17 - e688a0f6e4348730c4fa17dcb2d4da2b18202620a3e1095f205aa456d3e6d609
fdtd2d 17 17 x 0b17eae07c3d08dc5e8724983fd56f3020a31f40f7981f5c297052a27d51479d
fdtd2d 50 16 - ad231e2f6810dd36207018ea151885edbb355b2fcc477fef13c8b883163a8cf6
fdtd2d 50 16 x 7a28c85b6d352cc1b3a16b7209f467fcbdfb1d5266d6ea047053c62d027e7857
fdtd2d 50 50 - 4b182befc7f967f8b56f5c04aa8a439d22d6240aca5169dc2473d255217865e0
fdtd2d 50 50 x 52b45ab4dd7c60538dcecd2eb0841d476859e8142a23320cede0f74c793ee27e
fdtd2d 96 48 - e196963d6bf8358fc7eedd7fca5bf934500ceb36650c8577ffc850ac1f1b0cf7
fdtd2d 96 48 x 1cd4a67d0ca4d0c21bfee6b58d84e8cc26049affe85be80e839983092eacff2c
"""

PIN_CASES = [tuple(line.split()) for line in PINS.split("\n") if line]


def trace_digest(packed):
    h = hashlib.sha256()
    h.update(packed.vaddr.tobytes())
    h.update(packed.meta.tobytes())
    h.update(repr([(pos, op.method, op.args)
                   for pos, op in packed.xmem]).encode())
    return h.hexdigest()


class TestTracePins:
    def test_every_kernel_is_pinned(self):
        assert {case[0] for case in PIN_CASES} == set(FIGURE4_KERNELS)

    @pytest.mark.parametrize("name,n,tile,lib,digest", PIN_CASES,
                             ids=["-".join(c[:4]) for c in PIN_CASES])
    def test_trace_bytes_unchanged(self, name, n, tile, lib, digest):
        packed = KERNELS[name].build_packed(
            int(n), int(tile), XMemLib() if lib == "x" else None)
        assert trace_digest(packed) == digest
