import dataclasses

from triladder import fock, validate


def test_parity_blocks_check_reads_the_assembled_sectors(monkeypatch):
    passed, _ = validate.check_parity_blocks()
    assert passed
    assemble = fock.build_hamiltonian

    def swapped(params, *args):
        # u on the 2-3 ladder and v on the 1-2 ladder
        return assemble(dataclasses.replace(params, u=params.v, v=params.u), *args)

    monkeypatch.setattr(fock, "build_hamiltonian", swapped)
    passed, detail = validate.check_parity_blocks()
    assert not passed, detail
