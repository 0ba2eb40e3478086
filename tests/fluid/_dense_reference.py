"""Dense references shared by the fluid parity tests (not collected)."""

import numpy as np


def build_csr(incidence):
    """CSR index arrays by scanning a dense boolean link x flow incidence.

    The dense reference ``csr_from_path_links`` is compared with (and what
    ``test_kernels.py`` feeds the kernel twins): ``(link_ptr, link_cols,
    flow_ptr, flow_rows)``, flows ascending within a link and links
    ascending within a flow, contiguous ``int64``.
    """
    n_links, n_flows = incidence.shape
    rows, cols = np.nonzero(incidence)
    link_ptr = np.zeros(n_links + 1, dtype=np.int64)
    link_ptr[1:] = np.cumsum(np.bincount(rows, minlength=n_links))
    cols_t, rows_t = np.nonzero(incidence.T)
    flow_ptr = np.zeros(n_flows + 1, dtype=np.int64)
    flow_ptr[1:] = np.cumsum(np.bincount(cols_t, minlength=n_flows))
    return (
        link_ptr,
        np.ascontiguousarray(cols, dtype=np.int64),
        flow_ptr,
        np.ascontiguousarray(rows_t, dtype=np.int64),
    )
