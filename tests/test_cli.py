import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import GUARD_SRC, MODEL_PATH, TANK_SRC

import cyclotest
from cyclotest.cli import build_parser, main
from test_reduction import _model_sources

DESK = ["--remap-duration", "60s=3", "--remap-duration", "900s=5"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MODEL_SOURCES = {p.id: p.values[0] for p in _model_sources()}
# the columns of EVERY_MODEL_SHA, and the settings of its rows
ANALYSES = [(command, fmt) for command in ("enumerate-states", "reduce")
            for fmt in ([], ["--json"])]
ANALYSIS_SETTINGS = {"1000ms": [], "700ms-strict": ["--period-ms", "700", "--strict-held"]}
# sha256 of the standard output of each of ANALYSES on every model of
# _model_sources(), taken before reduce's step 2 came from the rewritten
# model's own cases and before --time-scale was removed
EVERY_MODEL_SHA = {
    ("iron", "1000ms"): (
        "28d50a45a781fa47393752a73abd3206c44aa7362c184bbdc65447fc097200cb",
        "ab54b7b04b2420df4ea86b634de2012f9b3cd147df455d2f1260440303f5d4e4",
        "e6ecbc47188bae3642250f36ba64ee48f22db30f414375c1fc4a887c2ac586b9",
        "848a9f25962e12727df4558b356d9013e79ec86f2473a30935e70a54e1f85dff",
    ),
    ("iron", "700ms-strict"): (
        "a39494f0cb1011fde4d0a2847389762c4a7fde44ffe42166e53406af21e1a05b",
        "8af42044d5a98c46dbf7921dbd1273693438f86e4e39a1aee3a02564da2cedba",
        "e6ecbc47188bae3642250f36ba64ee48f22db30f414375c1fc4a887c2ac586b9",
        "848a9f25962e12727df4558b356d9013e79ec86f2473a30935e70a54e1f85dff",
    ),
    ("tank-f1bff6a6", "1000ms"): (
        "65bf8db6635c8dba4e58a09d3e766b6d6971a7f2f6587236a283d18921abe3f6",
        "d560b30fccffaf236ad45a19ab6f348ffc89c1e9783d1307de71e5fd19b57bd8",
        "e90b7fe40aeb2d1f4c58cd6e390745de4b3c31328ce9068e18fd132bed67d2d8",
        "80edbdd73565d946c183ff61eff2056e4eaaf61c8c2196fd7825e3a5a867bade",
    ),
    ("tank-f1bff6a6", "700ms-strict"): (
        "e5fb01a8aa9bcec99e42d0d1e5ced1d8e632f718f1ee1d788e607cf38293151b",
        "1e921d92e298c1ac1bf3772e9c0ac05e0b01f1c170c0f6acfdf8506f4c752dd9",
        "e90b7fe40aeb2d1f4c58cd6e390745de4b3c31328ce9068e18fd132bed67d2d8",
        "80edbdd73565d946c183ff61eff2056e4eaaf61c8c2196fd7825e3a5a867bade",
    ),
    ("guard-cd195c2a", "1000ms"): (
        "0574b54d3fd447a26f52b3ffd9deff882a1cf3e914886dee75f17927ae8daa46",
        "68b93f727dbb3ca65c984faffa673283f46e6ebe4e24aae7536a40cb5c03b739",
        "bdd713642b7c77e0765d692bc9e77fb030fc378746c41bb17c22e0fd8d287f6c",
        "9d52e33110e256be9560aa7b49df4afe8b21dee98842aa9f16b0fec3dba388f9",
    ),
    ("guard-cd195c2a", "700ms-strict"): (
        "d3e5343da798b517cc872a656b1d9c6380be9684e1cda189638ed7c523cb0902",
        "c1c25b74317d5bbad830b7ca4ba57f6e515be845f252efa5fffed4f2fba031e9",
        "bdd713642b7c77e0765d692bc9e77fb030fc378746c41bb17c22e0fd8d287f6c",
        "9d52e33110e256be9560aa7b49df4afe8b21dee98842aa9f16b0fec3dba388f9",
    ),
    ("iron-bcfed6b5", "1000ms"): (
        "28d50a45a781fa47393752a73abd3206c44aa7362c184bbdc65447fc097200cb",
        "ab54b7b04b2420df4ea86b634de2012f9b3cd147df455d2f1260440303f5d4e4",
        "b8b71e0d988e51fcc807a97b0d6bb9b85e7c8f0790dd0aa8324764455e003a15",
        "fd7ad6f6929d8b2010fe618c6393057e7a90e450bcb6ca138d86b0afa6f6d6ab",
    ),
    ("iron-bcfed6b5", "700ms-strict"): (
        "a39494f0cb1011fde4d0a2847389762c4a7fde44ffe42166e53406af21e1a05b",
        "8af42044d5a98c46dbf7921dbd1273693438f86e4e39a1aee3a02564da2cedba",
        "b8b71e0d988e51fcc807a97b0d6bb9b85e7c8f0790dd0aa8324764455e003a15",
        "fd7ad6f6929d8b2010fe618c6393057e7a90e450bcb6ca138d86b0afa6f6d6ab",
    ),
    ("dial-e35fdd32", "1000ms"): (
        "c26d6c67abbe7305337800b53e96ff175ec4975bda93cd25a3b0e698a967bfde",
        "794ec0c9fa29e91d185413b8ccba345b49bbaf7475e28441a4476dc8e0c8ef0c",
        "f212c8dd2f211e591b5fc7d3145345b9c5f0f1daa73e85cb52706b3ecb8b693e",
        "f5f72a4e5c93c092c0b596fbf33c5f51b5594cabbd20a2a6076ac411b5065109",
    ),
    ("dial-e35fdd32", "700ms-strict"): (
        "c26d6c67abbe7305337800b53e96ff175ec4975bda93cd25a3b0e698a967bfde",
        "794ec0c9fa29e91d185413b8ccba345b49bbaf7475e28441a4476dc8e0c8ef0c",
        "f212c8dd2f211e591b5fc7d3145345b9c5f0f1daa73e85cb52706b3ecb8b693e",
        "f5f72a4e5c93c092c0b596fbf33c5f51b5594cabbd20a2a6076ac411b5065109",
    ),
    ("wide-d76505a5", "1000ms"): (
        "e209c015594a542872b2cef4d8fd982fa58779294f27e11334313e52686ad090",
        "f7f00f2d26c6c52cfc4d3b0854678d9dee5bf52eaf752d629b03c200e4a510e2",
        "92ab0ca5b2315b4a2a9a8a84fc2511f564c1ad324fb93fe0ed0332c32700cedd",
        "b297bd7ce3fcdee492c2e9cf793126b1612328ad1e9541310878ab5dde54bb18",
    ),
    ("wide-d76505a5", "700ms-strict"): (
        "e209c015594a542872b2cef4d8fd982fa58779294f27e11334313e52686ad090",
        "f7f00f2d26c6c52cfc4d3b0854678d9dee5bf52eaf752d629b03c200e4a510e2",
        "92ab0ca5b2315b4a2a9a8a84fc2511f564c1ad324fb93fe0ed0332c32700cedd",
        "b297bd7ce3fcdee492c2e9cf793126b1612328ad1e9541310878ab5dde54bb18",
    ),
    ("latch-ae168745", "1000ms"): (
        "9ae2964cb11977d6f6a8581773f5eea396c5ca40c651f07d48911cd12865477a",
        "073d6ce9f7109a209bab7e6a0eee56f5b3e343d60b1ed30811f13e4ac389ddda",
        "8d8fad8eb59a4683782ccc57d36ad1716b683656e286d84d21c50d49eee40c46",
        "3a6d10cb8fced9d688625a5a5125c52b38a4a154830cdb8da2fdb38318420d91",
    ),
    ("latch-ae168745", "700ms-strict"): (
        "9ae2964cb11977d6f6a8581773f5eea396c5ca40c651f07d48911cd12865477a",
        "073d6ce9f7109a209bab7e6a0eee56f5b3e343d60b1ed30811f13e4ac389ddda",
        "8d8fad8eb59a4683782ccc57d36ad1716b683656e286d84d21c50d49eee40c46",
        "3a6d10cb8fced9d688625a5a5125c52b38a4a154830cdb8da2fdb38318420d91",
    ),
    ("other-9b8f41fd", "1000ms"): (
        "d21bb02fb294886a40dc8823e411abdc400063c7a705167fdbaf6bd4c45d7f99",
        "5f108a18896ac1b3b123c81266a31f861113857ab4d2d97a24442a7d768a9a16",
        "6675a1ea907384263082a1f1901ba28b8affe5000e63259f74448a64de9762c4",
        "00b41ad7e1fd2c6119b1825cbb8265e7b6c6ba12bd51304ffd3d9d299bc9042e",
    ),
    ("other-9b8f41fd", "700ms-strict"): (
        "d21bb02fb294886a40dc8823e411abdc400063c7a705167fdbaf6bd4c45d7f99",
        "5f108a18896ac1b3b123c81266a31f861113857ab4d2d97a24442a7d768a9a16",
        "6675a1ea907384263082a1f1901ba28b8affe5000e63259f74448a64de9762c4",
        "00b41ad7e1fd2c6119b1825cbb8265e7b6c6ba12bd51304ffd3d9d299bc9042e",
    ),
    ("m-3cfe777e", "1000ms"): (
        "72c0e3c97b8047b0f1525a76dfa9a2113b5740fe1f69208fb4c5b6031a4f0650",
        "5e07be5f3b3553d0c0fce720a98f953dcbbd45a72097229dfe86b0a325fdddfc",
        "563692f5fbcd1c3028729eaa3fee0a901b46e4b68ba46365ddc8a7f3d77aac29",
        "ff9789cacf856730f247cb0a5bcf9ab8286b7ad52ac6b07e9db276b37ab0c29c",
    ),
    ("m-3cfe777e", "700ms-strict"): (
        "63bc7da99cbb81c5d7ee719e9d2fbcaba0bf0edc571890118a6742ad7d046c3f",
        "e1f2ce883f947be5802aae04b5e2f75d8bf2947032c85816129608f5539e6210",
        "563692f5fbcd1c3028729eaa3fee0a901b46e4b68ba46365ddc8a7f3d77aac29",
        "ff9789cacf856730f247cb0a5bcf9ab8286b7ad52ac6b07e9db276b37ab0c29c",
    ),
    ("m-9be55186", "1000ms"): (
        "3a8f1c198a1a8b1ad1b087e7a7e97c321fa0b249ae3c2460da29c77fd109e797",
        "d2f5d2c482686fcf8e3e0aa20cff4dd2f758d2bbd0c89ab0fbe8c842c6a61bff",
        "f5fff63f6925343280880b148f02ab0ef89ec785f3d4e21ed91bd5377beac7a1",
        "a532baabeed5684cb38272a31b747c7d374b6c7fea9f2901ab1136ab324f42f1",
    ),
    ("m-9be55186", "700ms-strict"): (
        "188100314466689a087513d777c40870e3aede07c8e03a297ae5bce7b085bb34",
        "a4e0312ab860c489319f7b67229c6978e8b6a6e5267e318d1d455eda356e7892",
        "f5fff63f6925343280880b148f02ab0ef89ec785f3d4e21ed91bd5377beac7a1",
        "a532baabeed5684cb38272a31b747c7d374b6c7fea9f2901ab1136ab324f42f1",
    ),
    ("m-743aa20f", "1000ms"): (
        "89fe536146e1f76beae48fba7c21d4a23db4459b2423bcf7c14aead8b9030556",
        "e6ad9cd1a47da8aea50f1061c33e30f63f711784395662ca31b4ec86533a729f",
        "c258ef007944f2de84d5c041c6bced67fb39839de91af2dfcc04361127139a31",
        "5287281d37afac2d03a30f1691f5dfd16271d2455b73de6c2984bfa1451297ba",
    ),
    ("m-743aa20f", "700ms-strict"): (
        "b358ef0b03804124f115b00a6743f019d27505215cff8a0df40912f36d303a3b",
        "ae5ccf4a321adef60d497957a1afa7392df49c7f467f442c09efebda565cb0e0",
        "c258ef007944f2de84d5c041c6bced67fb39839de91af2dfcc04361127139a31",
        "5287281d37afac2d03a30f1691f5dfd16271d2455b73de6c2984bfa1451297ba",
    ),
    ("m-46e4bd99", "1000ms"): (
        "51f06cd48be8e578a391e58d0d9ffbc6f9bdc8fca4628a004b50b6f8428a8ed6",
        "dd2da13dc67a3a2bd0c60786bf741064cb8e1346bb4a17418524be484fcf9f74",
        "66f6151fd58fcad36c409e6222e1a8d7de1020f6e7cd88b58b015329f6f8db5d",
        "e69b497bf33a97b71382d724c4f20281c7c7c1ca0d5f9515b573dbd8901a6fba",
    ),
    ("m-46e4bd99", "700ms-strict"): (
        "51f06cd48be8e578a391e58d0d9ffbc6f9bdc8fca4628a004b50b6f8428a8ed6",
        "dd2da13dc67a3a2bd0c60786bf741064cb8e1346bb4a17418524be484fcf9f74",
        "66f6151fd58fcad36c409e6222e1a8d7de1020f6e7cd88b58b015329f6f8db5d",
        "e69b497bf33a97b71382d724c4f20281c7c7c1ca0d5f9515b573dbd8901a6fba",
    ),
    ("m-68285274", "1000ms"): (
        "cbe1f3835920a2fe0f0db34c6db523de3be519f7818c8e0597f01ea1d5b8ebcf",
        "13bc27ffcff1d93b5649aebd31ebd638636c04e21c30fef7119509319b890093",
        "ee19ddcf43169e0a4f7e2ad16a73bee2c34bd729b90056d847f3ab6bbf4ab3c6",
        "a22cb80b99e2f65812e9ae1c6e00e2872e07b4c0ec0d0dd159a25d6b514e3273",
    ),
    ("m-68285274", "700ms-strict"): (
        "ccb41b1b67cd7432a90908f0f8987d367f0aa115609702e67cc2eb41bcb06811",
        "ffd2d38bdbdfd093333d60c2f4a582755b36039fef039801e71009874971af37",
        "ee19ddcf43169e0a4f7e2ad16a73bee2c34bd729b90056d847f3ab6bbf4ab3c6",
        "a22cb80b99e2f65812e9ae1c6e00e2872e07b4c0ec0d0dd159a25d6b514e3273",
    ),
    ("m-240becb9", "1000ms"): (
        "51f06cd48be8e578a391e58d0d9ffbc6f9bdc8fca4628a004b50b6f8428a8ed6",
        "dd2da13dc67a3a2bd0c60786bf741064cb8e1346bb4a17418524be484fcf9f74",
        "543584c05a3c6ce84da8117780c99e82102a71fab8bf9c4c8105211a0577d5f9",
        "67243978dbee778f2fe802889cd00b5b8f17e1e55e0a209b5966c92c272768ef",
    ),
    ("m-240becb9", "700ms-strict"): (
        "51f06cd48be8e578a391e58d0d9ffbc6f9bdc8fca4628a004b50b6f8428a8ed6",
        "dd2da13dc67a3a2bd0c60786bf741064cb8e1346bb4a17418524be484fcf9f74",
        "543584c05a3c6ce84da8117780c99e82102a71fab8bf9c4c8105211a0577d5f9",
        "67243978dbee778f2fe802889cd00b5b8f17e1e55e0a209b5966c92c272768ef",
    ),
    ("gauge-88915476", "1000ms"): (
        "9905d9af67b77b889ebad13e0d73c997755dbc011ad592c6bd97cf2de8d8a2c1",
        "404f8ccc8ec8ae2b9b42b9e4a0d99f9714f52f7ae4f8fe552bd010c8cb475f2a",
        "5d0fa9e9b494bd8b1fee8d7cb2ce3bb46c09f573ec08e4784066a83aa8482c6a",
        "b1c96a2ab1b50af6dbfbe53b2867f05b48b4890a32f632a90aed0cf0f8aa4121",
    ),
    ("gauge-88915476", "700ms-strict"): (
        "9905d9af67b77b889ebad13e0d73c997755dbc011ad592c6bd97cf2de8d8a2c1",
        "404f8ccc8ec8ae2b9b42b9e4a0d99f9714f52f7ae4f8fe552bd010c8cb475f2a",
        "5d0fa9e9b494bd8b1fee8d7cb2ce3bb46c09f573ec08e4784066a83aa8482c6a",
        "b1c96a2ab1b50af6dbfbe53b2867f05b48b4890a32f632a90aed0cf0f8aa4121",
    ),
    ("settle-abac4325", "1000ms"): (
        "7c8e7b2ffa6aad293ca874ce91717c5faf6f0bbb22935ad6bbd36c1a8ceb4c0d",
        "c6d988ba4bd0794cfa044ef39218a30b9805e92c69ed365bf4d6d80dd336221e",
        "9b90b8ba15ab41ffad26c26d833e26b569448be761b0adb283922ea63e48f578",
        "d6c6652d5200d1535919ce712825a52d9d612f6930aee617b218459e3e787449",
    ),
    ("settle-abac4325", "700ms-strict"): (
        "b0ece935ec92246fa4123f33f3574240de68384683b14085aceea4fa1ea724e5",
        "66226c67cbe04c258b7c5b25f57febf93a469ea0c61ac590e4c48d97fc6776f2",
        "9b90b8ba15ab41ffad26c26d833e26b569448be761b0adb283922ea63e48f578",
        "d6c6652d5200d1535919ce712825a52d9d612f6930aee617b218459e3e787449",
    ),
    ("two-237ac621", "1000ms"): (
        "45d3b676410adc2bfcc1349351c07f3c75a1137c5daf69b6a8ff06b2e7328221",
        "b38aac80ab5f2d7ee5e2cf9b1dc39c524417e91f52f16715cf3301d1e1c9fa7f",
        "eaf2b8c971a158316718d42d6937e781cdb715d11b20a30a879a6b1762096664",
        "27e487f35b2a4ae30a6b0c18b6d78651cfa92f1031279fa5aa38f52cc3996f56",
    ),
    ("two-237ac621", "700ms-strict"): (
        "d97f6545a5c073144deb87187d393c37f1086e06d8f5c39e18b59ae7c063501c",
        "b3d57398465a16eee3502eae30a178e21d3a03273b075857191eafe7b2f8ebc2",
        "eaf2b8c971a158316718d42d6937e781cdb715d11b20a30a879a6b1762096664",
        "27e487f35b2a4ae30a6b0c18b6d78651cfa92f1031279fa5aa38f52cc3996f56",
    ),
    ("heater-1d02e5df", "1000ms"): (
        "c3ba496cb1005d8723556eeaae9ff1af7a8713f380ddea9b6d4de5718e4e6e83",
        "bd5ff773937dabeef098c996c114143f9b916296ea75ff9357047fd14a1d9a10",
        "c4ad4677672c96bced6a51e64bc6b41c96f4656a425f71955bfda1bb945ed86b",
        "e33cfe44ad96cfadfdc0c5bf8bc2ed1ee05030a6759b30a60ba8a6b12ec2204d",
    ),
    ("heater-1d02e5df", "700ms-strict"): (
        "b071973e2ba146764a8d0295ce625c092bd64864a09ab0e50775864fef6297aa",
        "43145a7f09c1332651cc03a9acfc6ac1cf8819d05e1e7548c337d75e4198df57",
        "c4ad4677672c96bced6a51e64bc6b41c96f4656a425f71955bfda1bb945ed86b",
        "e33cfe44ad96cfadfdc0c5bf8bc2ed1ee05030a6759b30a60ba8a6b12ec2204d",
    ),
    ("quad-4b64c092", "1000ms"): (
        "f60d9cb9436933bd0bd5cb8f349553e2dc956c0e06a4420ee0a1468cfd876d70",
        "b82b9e8f451dbb1efbfff3cc9fde551fbe92638906444ab5a1d9a1e648a00c55",
        "ee2f276b2d5caa3cce9d9b8112762892e36b61265a719dd66d0f6e8c02c49bab",
        "b000a8e9a0e8a5d5795e962c0977422cbbdf2f7da088db50d348ed6eb26f680e",
    ),
    ("quad-4b64c092", "700ms-strict"): (
        "0698af2eec8ed8a5a90316dc7149727e73ae173d4fac099999de727a29f6852b",
        "055de3a547d10e61ccf4c8b0f79a2b96ac49948ba55e0a57de895ca0399cfb08",
        "ee2f276b2d5caa3cce9d9b8112762892e36b61265a719dd66d0f6e8c02c49bab",
        "b000a8e9a0e8a5d5795e962c0977422cbbdf2f7da088db50d348ed6eb26f680e",
    ),
    ("single-48d62513", "1000ms"): (
        "fe1127f5906fe7df8d813299a3b2d64374c2e04d271dd13b21e23f803dcd2ba2",
        "323c6a432c0dbe3088b0e14d8814da956b1d55f9b62322f563709fe34a174c43",
        "0fff1ae091443234367a834e3aa92296d62498690fc7f4e5606e2636ec8a0f44",
        "3806cd966083cc96992d0ad0d31fd26d47533ab5ba5e385e501bfa54c8496914",
    ),
    ("single-48d62513", "700ms-strict"): (
        "faa18299096380f646bbe76ada37a3e63c1e11b52af15e0906a7d020385d7ead",
        "80c6eec7ab961d64fd268fbe1c7ddaba948362072d8676de97cca4c76f088c0d",
        "0fff1ae091443234367a834e3aa92296d62498690fc7f4e5606e2636ec8a0f44",
        "3806cd966083cc96992d0ad0d31fd26d47533ab5ba5e385e501bfa54c8496914",
    ),
    ("order-fa87627d", "1000ms"): (
        "caf2c9532f62efa93b54587302ca8a96b327e042eb71357a0bb951168dc3bd29",
        "96dc3e9f527384ee12de6dde416ef41e559c78bc685c93e22c661ea837e10eb3",
        "551e373a7734ed4dca382f463b7f9ea3491ee56dc541efdcf5ab082dcef538b3",
        "7a18658b1159675c3969726b4998ab4de0c3e25299eab7fd2b4129169d107fdf",
    ),
    ("order-fa87627d", "700ms-strict"): (
        "3655bcd3e59539e222e249ca2ff9aa7c09ba97aa477301e746ee6a920e29bbbd",
        "bdc45a9f9d2ac888f863867fdd2e10f91c728302070dc874e4a174f92ed06855",
        "551e373a7734ed4dca382f463b7f9ea3491ee56dc541efdcf5ab082dcef538b3",
        "7a18658b1159675c3969726b4998ab4de0c3e25299eab7fd2b4129169d107fdf",
    ),
    ("stray-b4d3cc70", "1000ms"): (
        "99b5065c112fb2ab0dee3acd56530fec3645511ae646d5bc63bf5a9ffd01e17c",
        "f0115f8ace5d2f09a5cc18871680db0cc43e36acf03af2f88c3703b51ffd194a",
        "deb2ca4ec5cea3c89ab83ad08cf786c9bfea86e9beec506d9bc3666b5c4c4edc",
        "ff9db1aa2c109c4f77253d3006e7de35cf7515d328dd9fd8c2966d328425b00c",
    ),
    ("stray-b4d3cc70", "700ms-strict"): (
        "4f8c6edb4ac4c1b69e5f9c66a3a2ff399f78ee3652c27ea1a6440617ced6e43b",
        "d400e63b2a7e0300b8a22b973ae7f5c72fccd225b5e25f42268888877401148e",
        "deb2ca4ec5cea3c89ab83ad08cf786c9bfea86e9beec506d9bc3666b5c4c4edc",
        "ff9db1aa2c109c4f77253d3006e7de35cf7515d328dd9fd8c2966d328425b00c",
    ),
    ("u-cac9539b", "1000ms"): (
        "445aeff18632ca97438c6740bf56a67f049d9a0281f084c31b1ce7718e52bec0",
        "4ea57c256046fe517ac8f2e2b7a75bfd9a66bc1264d420c59f903275172a4941",
        "f56308c5df5b1d48c382b60d8114afe6cca2e72e368385f24f5896557d93b26e",
        "0cbd793e3981d6a9528381b6be33cdccda4582ab70238474dbc060c7c348ebb1",
    ),
    ("u-cac9539b", "700ms-strict"): (
        "445aeff18632ca97438c6740bf56a67f049d9a0281f084c31b1ce7718e52bec0",
        "4ea57c256046fe517ac8f2e2b7a75bfd9a66bc1264d420c59f903275172a4941",
        "f56308c5df5b1d48c382b60d8114afe6cca2e72e368385f24f5896557d93b26e",
        "0cbd793e3981d6a9528381b6be33cdccda4582ab70238474dbc060c7c348ebb1",
    ),
    ("m-2759aadf", "1000ms"): (
        "e1d527a8c3354c1e06e0d8a451e5ab835edc9344de2bb33b1b7f129aa9adb2f6",
        "66847af642cabb1bd929e117ebc4dd99d57c09b287525b69d1b21eb3e796d5c6",
        "8f5c3fe937f6ca89a2504d7469ed1899b68ef113b64c953166efaee65acf31b3",
        "0216c552440616287020854f8094634cfdadb73191d20623f7477fc936ea3c5d",
    ),
    ("m-2759aadf", "700ms-strict"): (
        "86f6b2eb81059d7115f7626849ab71426c685b0a0192e2cf6d7bee709bbfca36",
        "9eb087c420b7e66835e2c769857956e2b3eb189002686039d96c2d723b2c5133",
        "8f5c3fe937f6ca89a2504d7469ed1899b68ef113b64c953166efaee65acf31b3",
        "0216c552440616287020854f8094634cfdadb73191d20623f7477fc936ea3c5d",
    ),
}


class TestEnumerateStates:
    def test_text_report(self, capsys):
        code, out, _ = _run(capsys, ["enumerate-states", "--model", MODEL_PATH] + DESK)
        assert code == 0
        assert "upper bound: 16" in out
        assert "reachable flag states: 9" in out

    def test_json_report(self, capsys):
        code, out, _ = _run(capsys, ["enumerate-states", "--model", MODEL_PATH, "--json"] + DESK)
        data = json.loads(out)
        assert code == 0
        assert data["upper_bound"] == 16
        assert data["reachable"] == 9
        assert len(data["states"]) == 9

    def test_text_witness_runs_compact(self, capsys):
        code, out, _ = _run(capsys, ["enumerate-states", "--model", MODEL_PATH] + DESK)
        assert code == 0
        assert out.splitlines()[4:] == [
            "  [0, 0, 0, 0]  via <initial>",
            "  [1, 1, 0, 0]  via (move=0,position=0) x4",
            "  [1, 0, 0, 0]  via (move=0,position=0) x3 (move=0,position=1)",
            "  [0, 1, 0, 0]  via (move=0,position=0) x3 (move=1,position=0)",
            "  [1, 1, 1, 0]  via (move=0,position=0) x6",
            "  [1, 0, 1, 0]  via (move=0,position=0) x5 (move=0,position=1)",
            "  [1, 0, 1, 1]  via (move=0,position=1) x6",
            "  [0, 0, 0, 1]  via (move=0,position=1) x5 (move=1,position=1)",
            "  [1, 0, 0, 1]  via (move=0,position=1) (move=1,position=1) (move=0,position=1) x4",
        ]

    def test_missing_model_exit_2(self, capsys):
        code, _, err = _run(capsys, ["enumerate-states", "--model", "/nonexistent.ctl"])
        assert code == 2
        assert "cannot read model" in err


class TestReduce:
    def test_lists_and_partition(self, capsys):
        code, out, _ = _run(capsys, ["reduce", "--model", MODEL_PATH, "--json"] + DESK)
        data = json.loads(out)
        assert code == 0
        assert len(data["test_cases"]) == 4
        assert len(data["rewritten"]) == 4
        assert [p["condition"] for p in data["projections"]] == [
            "move_eq_f_t2 && position_eq_t_t2",
            "!(move_eq_f_t2 && position_eq_t_t2)",
            "move_eq_f_t1 && position_eq_f_t1",
            "!(move_eq_f_t1 && position_eq_f_t1)",
        ]
        assert sum(len(cell["states"]) for cell in data["partition"]) == 9

    def test_text_sections(self, capsys):
        code, out, _ = _run(capsys, ["reduce", "--model", MODEL_PATH] + DESK)
        assert code == 0
        for step in ("step 1", "step 2", "step 3", "step 4"):
            assert step in out


class TestAnalysisPinned:
    # sha256 of the JSON report and of stderr (the check_model diagnostics),
    # taken before generalized states were read off the tree walk; the tank
    # and guard reduce reports were re-taken when the printed conditions
    # became re-parseable (an || factor in parentheses, projections that mix
    # inputs with predicate ids under "exists inputs:"); the guard diagnostics
    # were re-taken when leaf warnings gained the leaf's source position
    @pytest.mark.parametrize("model, command, out_sha, err_sha", [
        ("iron", "reduce",
         "8fee2416cfbb7c6fae320a07dbcda1253e861fe6e93b36851ec17e728797f06a",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("iron", "enumerate-states",
         "feb4f1164fa77757f289307435040992f06f517cfce0770e9aedbb92c08b02ac",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("tank", "reduce",
         "80edbdd73565d946c183ff61eff2056e4eaaf61c8c2196fd7825e3a5a867bade",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("tank", "enumerate-states",
         "d560b30fccffaf236ad45a19ab6f348ffc89c1e9783d1307de71e5fd19b57bd8",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("guard", "reduce",
         "9d52e33110e256be9560aa7b49df4afe8b21dee98842aa9f16b0fec3dba388f9",
         "13e4eb26803407224f4a54a31edb53bad8307fb7834880e114364935114f1a6c"),
        ("guard", "enumerate-states",
         "68b93f727dbb3ca65c984faffa673283f46e6ebe4e24aae7536a40cb5c03b739",
         "13e4eb26803407224f4a54a31edb53bad8307fb7834880e114364935114f1a6c"),
    ])
    def test_json_and_diagnostics_pinned(self, capsys, tmp_path, monkeypatch, model, command,
                                         out_sha, err_sha):
        if model == "iron":
            argv = ["--model", MODEL_PATH] + DESK
        else:
            # a relative path, so the diagnostics name the file the same way
            monkeypatch.chdir(tmp_path)
            Path(model + ".ctl").write_text({"tank": TANK_SRC, "guard": GUARD_SRC}[model])
            argv = ["--model", model + ".ctl"]
        code, out, err = _run(capsys, [command] + argv + ["--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha
        assert hashlib.sha256(err.encode()).hexdigest() == err_sha

    # the 20-input models of the CI's wide-input step
    @pytest.mark.parametrize("model, reachable, cells", [
        ("wide20", 8, 3), ("wide20_state", 16, 5)])
    def test_wide_input_counts(self, capsys, model, reachable, cells):
        argv = ["--model", str(Path(__file__).resolve().parent / "models" / (model + ".ctl")),
                "--json"]
        code, out, err = _run(capsys, ["enumerate-states"] + argv)
        assert (code, err, json.loads(out)["reachable"]) == (0, "", reachable)
        code, out, err = _run(capsys, ["reduce"] + argv)
        assert (code, err, len(json.loads(out)["partition"])) == (0, "", cells)

    # iron at its own 60 s/900 s; taken from the breadth-first search that
    # the closed form for models without state variables replaced
    @pytest.mark.parametrize("command, argv, out_sha", [
        ("enumerate-states", [],
         "ab54b7b04b2420df4ea86b634de2012f9b3cd147df455d2f1260440303f5d4e4"),
        ("enumerate-states", ["--period-ms", "700", "--strict-held"],
         "8af42044d5a98c46dbf7921dbd1273693438f86e4e39a1aee3a02564da2cedba"),
        ("reduce", [],
         "848a9f25962e12727df4558b356d9013e79ec86f2473a30935e70a54e1f85dff"),
        ("reduce", ["--period-ms", "700", "--strict-held"],
         "848a9f25962e12727df4558b356d9013e79ec86f2473a30935e70a54e1f85dff"),
    ], ids=["enumerate-1000ms", "enumerate-700ms-strict", "reduce-1000ms", "reduce-700ms-strict"])
    def test_paper_scale_json_pinned(self, capsys, command, argv, out_sha):
        code, out, err = _run(capsys, [command, "--model", MODEL_PATH, "--json"] + argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha
        assert err == ""

    @pytest.mark.parametrize("model, setting", [
        pytest.param(model, setting, id="%s-%s" % (model, setting))
        for model, setting in EVERY_MODEL_SHA])
    def test_every_model_pinned(self, capsys, tmp_path, model, setting):
        path = tmp_path / "model.ctl"
        path.write_text(MODEL_SOURCES[model])
        digests = []
        for command, fmt in ANALYSES:
            code, out, _ = _run(capsys, [command, "--model", str(path)] + fmt
                                + ANALYSIS_SETTINGS[setting])
            assert code == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(digests) == EVERY_MODEL_SHA[model, setting]


class TestRun:
    def test_correct_subject_exit_0(self, capsys):
        code, out, _ = _run(capsys, [
            "run", "--model", MODEL_PATH, "--sut", "inproc:iron",
            "--require", "branch=1.0", "--deterministic", "--json",
        ] + DESK)
        data = json.loads(out)
        assert code == 0
        assert data["coverage"]["branch"] == 1.0
        assert set(data["verdicts"]) == {"Pass"}

    def test_mutant_exit_4(self, capsys):
        code, out, _ = _run(capsys, [
            "run", "--model", MODEL_PATH, "--sut", "inproc:iron:M1", "--json",
            "--deterministic",
        ] + DESK)
        data = json.loads(out)
        assert code == 4
        assert data["verdicts"].get("PostconditionFailure") == 1

    def test_missing_model_exit_2(self, capsys):
        code, _, _ = _run(capsys, ["run", "--model", "/nonexistent.ctl"])
        assert code == 2

    def test_dead_tcp_subject_exit_3(self, capsys):
        code, _, err = _run(capsys, [
            "run", "--model", MODEL_PATH, "--sut", "tcp:127.0.0.1:9", "--timeout", "0.5",
        ] + DESK)
        assert code == 3

    def test_unmet_coverage_exit_5(self, capsys):
        code, _, _ = _run(capsys, [
            "run", "--model", MODEL_PATH, "--scenario", "piece:t",
            "--require", "branch=1.0", "--json", "--deterministic",
        ] + DESK)
        assert code == 5

    def test_deterministic_json_byte_identical(self, capsys):
        argv = ["run", "--model", MODEL_PATH, "--json", "--deterministic"] + DESK
        outputs = [_run(capsys, argv)[1] for _ in range(2)]
        assert outputs[0] == outputs[1]

    def test_desk_output_pinned(self, capsys, tmp_path):
        # sha256 of the desk-scale test log, cycle records and JSON report;
        # a change to any is a change of observable behaviour
        log, cycles = tmp_path / "log.jsonl", tmp_path / "cycles.jsonl"
        code, out, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--json", "--deterministic",
                                     "--log", str(log), "--trace-cycles", str(cycles)] + DESK)
        assert code == 0
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "2f93ba03921d0dfe609976da8e528245e7682b840fdc38d203369bc1cf39ddec")
        assert hashlib.sha256(cycles.read_bytes()).hexdigest() == (
            "dd64a0c56cea142fb6fe1b893cb13ecaf57bc2aa8e6fbabda5d05529563a0535")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "828f7ae44ffab2ab800d1698a704a025ff270901e903cfead0dbb1cf79ea9a62")

    def test_paper_output_pinned(self, capsys, tmp_path):
        # the same at the model's own 60 s/900 s: 30,646 stimuli
        log, cycles = tmp_path / "log.jsonl", tmp_path / "cycles.jsonl"
        code, out, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--json", "--deterministic",
                                     "--log", str(log), "--trace-cycles", str(cycles)])
        assert code == 0
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "47e8882379ed59e57106cc2f11078ec0c5201ad71dbf49c479cda7260cf1b79b")
        assert hashlib.sha256(cycles.read_bytes()).hexdigest() == (
            "01a9a49dc21697bf29eda2dec3a294b60824932bda553564bbaf5b00a4558f7e")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8a28ed9eadfda2b638882ff705208b244b1bab6681b15a104690e2037d9f64f0")

    def test_artifacts_written(self, capsys, tmp_path):
        log = tmp_path / "log.jsonl"
        dot = tmp_path / "automaton.dot"
        cycles = tmp_path / "cycles.jsonl"
        code, _, _ = _run(capsys, [
            "run", "--model", MODEL_PATH, "--deterministic",
            "--log", str(log), "--dot", str(dot), "--trace-cycles", str(cycles),
        ] + DESK)
        assert code == 0
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert {"cycle", "state", "action", "verdict", "replay"} <= set(entries[0])
        assert dot.read_text().startswith("digraph")
        records = [json.loads(line) for line in cycles.read_text().splitlines()]
        assert records[0] == {"cycle": 0, "sys_time_ms": 1000, "overrun": False}
        deltas = {b["sys_time_ms"] - a["sys_time_ms"] for a, b in zip(records, records[1:])}
        assert deltas == {1000}

    def test_seeded_run_reproducible(self, capsys):
        argv = ["run", "--model", MODEL_PATH, "--seed", "7", "--json", "--deterministic"] + DESK
        outputs = [_run(capsys, argv)[1] for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["coverage"]["branch"] == 1.0

    def test_seeded_output_pinned(self, capsys, tmp_path):
        # the shuffled action order under --seed: log, DOT and JSON report
        log, dot = tmp_path / "log.jsonl", tmp_path / "automaton.dot"
        code, out, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--seed", "7", "--json",
                                     "--deterministic", "--log", str(log), "--dot", str(dot)]
                            + DESK)
        assert code == 0
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "8fdc8cb7a738001e94479211a2d4ab73659a75b6a9190cead04acc2222e55fcf")
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == (
            "68a8b2b768c1a67e266892858632d06010d580bad77eba53d580512f75e51067")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ba3815195f720619ed3a09569d63739dbbb16d493406aaa075a0f32d6ae77d54")

    def test_piecemeal_output_pinned(self, capsys, tmp_path):
        # the parts' pinned and iterated inputs: the merged log and JSON report
        log = tmp_path / "log.jsonl"
        code, out, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--scenario", "piecemeal",
                                     "--json", "--deterministic", "--log", str(log)] + DESK)
        assert code == 0
        assert hashlib.sha256(log.read_bytes()).hexdigest() == (
            "705879bd188b1883be81ca8ec37c6be969be19f22dfa22fec5430c6dbefd339c")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b82ddf0ba31bcadade9c20f975244c461eb39ae18f3977fc4f63bc33baab0b7c")

    def test_paper_seeded_log_pinned(self, capsys, tmp_path):
        # a seeded shuffle at the model's own 60 s/900 s, which CI also checks
        # over stdio
        log = tmp_path / "log.jsonl"
        code, _, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--seed", "3",
                                   "--deterministic", "--log", str(log)])
        assert code == 0
        data = log.read_bytes()
        assert data.count(b"\n") == 31_547
        assert hashlib.sha256(data).hexdigest() == (
            "549bb9a8830df898b653ff40b337ec6c43889488fcf1c61b6eed531d2c6e4fcb")


# iron with a redundant inner test of position: its else leaf 'te' is
# unreachable, and the iron subject still passes every cycle
IRON_DEAD_LEAF_SRC = """\
model iron {
  input move: bool;
  input position: bool;
  output heating: bool;

  logic {
    if (position) {
      if (position) {
        if (held(!move && position, 900s)) { heating = 0; } else { heating = 1; }
      } else {
        heating = 1;
      }
    } else {
      if (held(!move && !position, 60s)) { heating = 0; } else { heating = 1; }
    }
  }
}
"""


class _InlinePool:
    """Stands in for the process pool: records its size and runs the work
    in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestPiecemeal:
    def test_jobs_do_not_change_the_output(self, capsys, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            log = tmp_path / ("log%s.jsonl" % jobs)
            code, out, _ = _run(capsys, [
                "run", "--model", MODEL_PATH, "--scenario", "piecemeal", "--jobs", jobs,
                "--require", "branch=1.0", "--json", "--deterministic", "--log", str(log),
            ] + DESK)
            assert code == 0
            assert json.loads(out)["coverage"]["branch"] == 1.0
            outputs.append((out, log.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_pool_has_at_most_one_process_per_part(self, capsys, monkeypatch):
        monkeypatch.setattr(cyclotest.cli, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        for jobs in ("1", "10000"):
            code, _, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--scenario", "piecemeal",
                                       "--jobs", jobs, "--json", "--deterministic"] + DESK)
            assert code == 0
        # two parts: one serial run, then a pool of two
        assert _InlinePool.sizes == [2]

    def test_bad_subject_in_a_worker_exit_2(self, capsys):
        # the usage error crosses back from a pool process
        code, _, err = _run(capsys, ["run", "--model", MODEL_PATH, "--scenario", "piecemeal",
                                     "--jobs", "2", "--sut", "inproc:iron:M9"] + DESK)
        assert code == 2
        assert err == "error: unknown iron mutant 'M9'\n"

    def test_a_failing_later_part_fails_the_merged_outcome(self, capsys):
        # M3 fails only in part 'e', the second part
        code, out, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--scenario", "piecemeal",
                                     "--sut", "inproc:iron:M3", "--json", "--deterministic"]
                            + DESK)
        data = json.loads(out)
        assert code == 4
        assert data["verdicts"]["PostconditionFailure"] == 1
        assert data["outcome"] == "verdict_failure"

    def test_model_loaded_and_diagnosed_once(self, capsys, monkeypatch, tmp_path):
        model = tmp_path / "iron.ctl"
        model.write_text(IRON_DEAD_LEAF_SRC)
        loads = []
        load_model = cyclotest.cli.load_model
        monkeypatch.setattr(cyclotest.cli, "load_model",
                            lambda config: loads.append(config) or load_model(config))
        code, _, err = _run(capsys, ["run", "--model", str(model), "--scenario", "piecemeal",
                                     "--sut", "inproc:iron", "--json", "--deterministic"] + DESK)
        assert code == 0
        assert len(loads) == 1
        assert err == "%s:10:14: warning: leaf 'te' is unreachable\n" % model


def _subprocess(module, argv, stdout=subprocess.PIPE):
    """Run ``python -m module argv`` on this checkout's sources."""
    src = str(Path(cyclotest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", module] + argv, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60)


FAKE_SUBJECT = [sys.executable, str(Path(__file__).resolve().parent / "fake_subject.py")]
FAULTS = ["no-time", "bad-output", "time-back", "bool-cycle", "float-cycle", "no-state",
          "partial-line", "trickle"]


class TestMisbehavingSubject:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_stdio_fault_exit_3_without_traceback(self, fault):
        self._assert_mediator_failure("stdio:" + shlex.join(FAKE_SUBJECT + [fault]))

    @pytest.mark.parametrize("fault", FAULTS)
    def test_tcp_fault_exit_3_without_traceback(self, fault):
        with subprocess.Popen(FAKE_SUBJECT + [fault, "--tcp"], stdout=subprocess.PIPE,
                              text=True) as server:
            try:
                address = server.stdout.readline().split()[-1]
                self._assert_mediator_failure("tcp:" + address)
            finally:
                server.kill()

    @staticmethod
    def _assert_mediator_failure(sut):
        started = time.monotonic()
        proc = _subprocess("cyclotest.cli", ["run", "--model", MODEL_PATH, "--sut", sut,
                                             "--timeout", "1", "--json", "--deterministic"]
                           + DESK)
        # one timed-out reply line and one timed-out wait for a stdio child at most
        assert time.monotonic() - started < 10
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["verdicts"]["MediatorFailure"] == 1

    def test_raising_inproc_subject_exit_3(self, capsys, monkeypatch):
        class Raising:
            def step(self, inputs, sys_time_ms):
                raise RuntimeError("actuator fault")

        monkeypatch.setattr(cyclotest.iron, "IronSut", lambda *args: Raising())
        code, out, _ = _run(capsys, ["run", "--model", MODEL_PATH, "--json",
                                     "--deterministic"] + DESK)
        assert code == 3
        assert json.loads(out)["verdicts"] == {"MediatorFailure": 1}


class TestBadArguments:
    @pytest.mark.parametrize("module, argv", [
        ("cyclotest.cli", ["--remap-duration", "60x=3"]),
        ("cyclotest.cli", ["--remap-duration", "60s=0"]),
        ("cyclotest.cli", ["--remap-duration", "60s=-1"]),
        ("cyclotest.cli", ["--scenario", "piecemeal", "--parts", "zz"]),
        ("cyclotest.cli", ["--scenario", "piecemeal", "--parts", "t", "t"]),
        ("cyclotest.cli", ["--scenario", "piece:zz"]),
        ("cyclotest.cli", ["--parts", "zz"]),
        ("cyclotest.cli", ["--jobs", "2"]),
        ("cyclotest.cli", ["--scenario", "piecemeal", "--dot", "automaton.dot"]),
        ("cyclotest.cli", ["--require", "branch=abc"]),
        ("cyclotest.cli", ["--require", "branch=nan"]),
        ("cyclotest.cli", ["--require", "branch=1.5"]),
        ("cyclotest.cli", ["--time-scale", "1/10"]),
        ("cyclotest.cli", ["--sut", "tcp:127.0.0.1:notaport"]),
        ("cyclotest.cli", ["--sut", "tcp:127.0.0.1:99999"]),
        ("cyclotest.cli", ["--sut", "inproc:iron:M9"]),
        ("cyclotest.cli", ["--budget", "0"]),
        ("cyclotest.cli", ["--jobs", "0"]),
        ("cyclotest.cli", ["--jobs", "-1"]),
        ("cyclotest.cli", ["--timeout", "0"]),
        ("cyclotest.cli", ["--timeout", "-1"]),
        ("cyclotest.cli", ["--period-ms", "0"]),
        ("cyclotest.cli", ["--period-ms", "-5"]),
        ("cyclotest.iron_sut", ["--durations", "3,x"]),
        ("cyclotest.iron_sut", ["--durations=-5,0"]),
        ("cyclotest.iron_sut", ["--listen", "tcp:127.0.0.1:notaport"]),
        ("cyclotest.iron_sut", ["--period-ms", "0"]),
        ("cyclotest.iron_sut", ["--period-ms", "-5"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v.split(".")[-1])
    def test_exit_2_without_traceback(self, module, argv):
        if module == "cyclotest.cli":
            argv = ["run", "--model", MODEL_PATH] + argv
        proc = _subprocess(module, argv)
        _assert_usage_error(proc)
        if "--period-ms" in argv:
            assert "--period-ms" in proc.stderr.splitlines()[-1]

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    def test_held_over_output_exit_2_at_its_position(self, capsys, tmp_path, command):
        model = tmp_path / "m.ctl"
        model.write_text("model m { input a: bool; output o: bool; logic {\n"
                         "  if (held(o, 1s)) { o = 1; } else { o = 0; } } }\n")
        code, out, err = _run(capsys, [command, "--model", str(model)])
        assert code == 2
        assert err.splitlines() == ["error: %s: 2:12: cannot read output 'o'" % model]

    @pytest.mark.parametrize("argv", [
        ["--scenario", "piecemeal"],
        ["--sut", "stdio:SUBJECT"],
        ["--sut", "tcp:127.0.0.1:9"],
    ], ids=["piecemeal", "stdio", "tcp"])
    def test_trace_cycles_needs_one_in_process_kernel(self, tmp_path, argv):
        # refused before the cycles file is opened or a subject is started
        started, cycles = tmp_path / "started", tmp_path / "cycles.jsonl"
        subject = shlex.join([sys.executable, "-c", "open(%r, 'w')" % str(started)])
        argv = [arg.replace("SUBJECT", subject) for arg in argv]
        proc = _subprocess("cyclotest.cli", ["run", "--model", MODEL_PATH, "--trace-cycles",
                                             str(cycles)] + argv + DESK)
        _assert_usage_error(proc)
        assert "--trace-cycles needs" in proc.stderr.splitlines()[-1]
        assert not cycles.exists() and not started.exists()

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    def test_remap_of_an_unused_duration_exit_2(self, tmp_path, command):
        # refused before a subject is started
        started = tmp_path / "started"
        subject = shlex.join([sys.executable, "-c", "open(%r, 'w')" % str(started)])
        argv = [command, "--model", MODEL_PATH, "--remap-duration", "7s=3",
                "--remap-duration", "60s=3"]
        proc = _subprocess("cyclotest.cli", argv + (["--sut", "stdio:" + subject]
                                                    if command == "run" else []))
        _assert_usage_error(proc)
        assert proc.stderr.splitlines() == [
            "error: --remap-duration: no held() in %s lasts 7000 ms" % MODEL_PATH]
        assert not started.exists()

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    def test_bool_initializer_outside_0_1_exit_2(self, tmp_path, command):
        model = tmp_path / "init.ctl"
        model.write_text("model m {\n  input a: bool;\n  output o: bool;\n"
                         "  state s: bool readable = 5;\n"
                         "  logic { if (a && s) { o = 1; } else { o = 0; } }\n}\n")
        proc = _subprocess("cyclotest.cli", [command, "--model", str(model)])
        _assert_usage_error(proc)
        assert proc.stderr.splitlines() == [
            "error: %s: 4:9: initializer 5 outside range 0..1" % model]

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    def test_assignment_outside_its_target_exit_2(self, tmp_path, command):
        # one line for each assignment that can leave its target's domain,
        # then the summary, as for every check_model error
        model = tmp_path / "range.ctl"
        model.write_text("model m {\n  input a: int 0..5;\n  output o: int 0..3;\n"
                         "  state s: int 0..3 hidden;\n  logic { o = a; s = a; }\n}\n")
        proc = _subprocess("cyclotest.cli", [command, "--model", str(model)])
        _assert_usage_error(proc)
        assert proc.stderr.splitlines() == [
            "%s:5:11: error: 'a' in 0..5 can fall outside 0..3 for 'o'" % model,
            "%s:5:18: error: 'a' in 0..5 can fall outside 0..3 for 's'" % model,
            "error: model has errors"]

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    def test_unassigned_output_exit_2_at_its_declaration(self, capsys, tmp_path, command):
        model = tmp_path / "unassigned.ctl"
        model.write_text("model m {\n  input a: bool;\n  output o: bool;\n  output p: bool;\n"
                         "  logic { if (a) { o = 1; } else { o = 0; } }\n}\n")
        code, out, err = _run(capsys, [command, "--model", str(model)])
        assert code == 2
        assert err.splitlines() == ["error: %s: 4:10: output never assigned: 'p'" % model]

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    @pytest.mark.parametrize("source, message", [
        pytest.param("model m { input a: bool; input b: bool; output o: bool; logic { "
                     "if (held(a || b, 3s)) { o = 1; } else { o = 0; } } }",
                     "1:76: held() needs a conjunction of literals, got 'a || b'",
                     id="held-disjunction"),
        pytest.param("model m { input a: bool; output a_eq_t_t1: bool; logic { "
                     "if (held(a, 2s)) { a_eq_t_t1 = 1; } else { a_eq_t_t1 = 0; } } }",
                     "1:33: predicate id 'a_eq_t_t1' collides with a declaration",
                     id="predicate-id-collision"),
    ])
    def test_extraction_error_exit_2_without_traceback(self, tmp_path, command, source, message):
        model = tmp_path / "bad.ctl"
        model.write_text(source)
        proc = _subprocess("cyclotest.cli", [command, "--model", str(model)])
        _assert_usage_error(proc)
        assert proc.stderr.splitlines() == ["error: %s: %s" % (model, message)]


class TestOutputFaults:
    """An output that cannot be opened or written is one line on stderr
    and a documented exit code, never a traceback."""

    @pytest.mark.parametrize("option", ["--log", "--trace-cycles", "--dot"])
    def test_unopenable_output_exit_2_before_the_subject_starts(self, tmp_path, option):
        # the cycle records need the in-process subject, which starts no process
        started = tmp_path / "started"
        subject = shlex.join([sys.executable, "-c", "open(%r, 'w')" % str(started)])
        sut = "inproc:iron" if option == "--trace-cycles" else "stdio:" + subject
        proc = _subprocess("cyclotest.cli", ["run", "--model", MODEL_PATH, "--sut", sut,
                                             option, "/nonexistent/x"] + DESK)
        _assert_usage_error(proc)
        assert proc.stderr.splitlines() == [
            "error: cannot open /nonexistent/x: No such file or directory"]
        assert not started.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("option", ["--log", "--trace-cycles", "--dot"])
    def test_failed_write_exit_6(self, option):
        proc = _subprocess("cyclotest.cli", ["run", "--model", MODEL_PATH, option, "/dev/full"]
                           + DESK)
        assert proc.returncode == 6, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: cannot write /dev/full: No space left on device"]

    @pytest.mark.parametrize("command", ["run", "enumerate-states", "reduce"])
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_closed_stdout_exit_6(self, command, fmt):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "w") as stdout:
            proc = _subprocess("cyclotest.cli", [command, "--model", MODEL_PATH] + fmt + DESK,
                               stdout=stdout)
        assert proc.returncode == 6, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: cannot write standard output: Broken pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exit_6(self):
        with open("/dev/full", "w") as stdout:
            proc = _subprocess("cyclotest.cli", ["run", "--model", MODEL_PATH] + DESK,
                               stdout=stdout)
        assert proc.returncode == 6, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: cannot write standard output: No space left on device"]

    def test_outputs_closed_when_the_campaign_fails(self, capsys, tmp_path):
        # the early-opened files are closed on every path (the -X dev
        # ResourceWarning check sees one that is not)
        log, dot = tmp_path / "log.jsonl", tmp_path / "automaton.dot"
        code, _, err = _run(capsys, ["run", "--model", MODEL_PATH, "--log", str(log),
                                     "--dot", str(dot), "--sut", "inproc:iron:M9"] + DESK)
        assert code == 2
        assert "unknown iron mutant" in err
        code, _, err = _run(capsys, ["run", "--model", MODEL_PATH, "--log", str(log),
                                     "--dot", str(tmp_path / "missing" / "x.dot")] + DESK)
        assert code == 2
        assert "cannot open" in err


def _assert_usage_error(proc):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr.splitlines()[-1]


def _readme_commands() -> list:
    """The arguments of each ``cyclotest ...`` command in README's sh blocks,
    its continued lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["cyclotest"]:
                commands.append(words[1:])
    return commands


class TestReadme:
    def test_commands_parse(self, capsys):
        commands = _readme_commands()
        assert len(commands) >= 6
        for argv in commands:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail("README command does not parse: cyclotest %s\n%s"
                            % (shlex.join(argv), capsys.readouterr().err))
