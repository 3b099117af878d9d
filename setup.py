from setuptools import Extension, setup

# _fastcore.c is generated from _fastcore.pyx and shipped; it is compiled as
# is. Without a C compiler the package installs on the pure backend.
setup(
    ext_modules=[
        Extension(
            "clawchroma._kernels._fastcore",
            ["src/clawchroma/_kernels/_fastcore.c"],
            optional=True,
        )
    ]
)
