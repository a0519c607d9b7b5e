"""Contact-guided flow-matching over voxel occupancy grids."""

__version__ = "0.1.0"
