"""Occupancy re-benchmarking engine for NeRF-style density fields.

Submodules:

* ``geometry``  - cameras, poses, rays, frustum-cube coordinate transform, workspaces
* ``grids``     - axis-aligned voxel grids
* ``field``     - analytic scene oracle and the learnable voxel density field
* ``rendering`` - point sampling, opacity/transmittance, compositing
* ``benchmark`` - opacity-map voxelization, masks, occupancy metrics
* ``losses``    - photometric + polarization losses and analytic gradients
* ``optim``     - Adam trainer and the one-view evaluation pass
* ``scenefile`` - text scene-spec parsing
* ``gridio``    - binary voxel-grid file format
* ``reporting`` - metrics JSON/CSV emission
* ``fixtures``  - the synthetic occluder scene the tests and the benchmark share
"""

__version__ = "0.1.0"
